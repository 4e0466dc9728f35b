package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/core"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/gen"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/satgraph"
	"neuroselect/internal/server"
	"neuroselect/internal/solver"
)

const (
	// mixScale sizes dataset.Generate's instances; at 0.8 no instance of
	// the mixture takes more than about 0.1 s to solve.
	mixScale = 0.8
	// mixRate is the nominal op rate that sizes the request list: about
	// seconds×mixRate ops, in whole multiples of the stratum cycle.
	mixRate       = 180
	mixWarmCycles = 2   // stratum cycles of warm-up requests, from a disjoint seed range
	mixReplay     = 300 // requests replayed in process by the traced run
)

// mixStrata is the share, per cycle of 21 requests, of each family of
// dataset.Generate's mixture. The request list fills these quotas exactly,
// so every seed sends the same family mix and run-to-run differences come
// from the instances, not from how many of each family the seed drew.
// Pigeonhole and n-queens are left out: their formulas are fixed by a size
// alone, so they would repeat and be answered from the cache.
var mixStrata = map[string]int{
	"random": 6, "community": 2, "tseitin": 2, "subsetsum": 2, "bmc": 2,
	"miter": 2, "coloring": 2, "parity": 2, "powerlaw": 1,
}

const mixCycle = 21 // sum of mixStrata

// mixReq is one /v1/solve upload.
type mixReq struct {
	id       string
	body     []byte // DIMACS, exactly as sent
	expected gen.Expectation
}

// solveMix is the paper's inference-then-solve pipeline on a
// heterogeneous population: every request is a distinct formula, so every
// timed request is a cache miss that runs ingest, selection and search.
type solveMix struct {
	seed       int64
	reqs, warm []mixReq
}

func newSolveMix(seed int64, seconds int) (workload, error) {
	w := &solveMix{seed: seed}
	base := seed << 20
	// Formulas are distinct by canonical hash across both lists, so no
	// request can be answered from the cache.
	seen := map[string]bool{}
	if err := w.fill(&w.warm, mixWarmCycles, base+1<<19, "mix-%d-w%03d", seen); err != nil {
		return nil, err
	}
	cycles := (seconds*mixRate + mixCycle - 1) / mixCycle
	if err := w.fill(&w.reqs, cycles, base, "mix-%d-%05d", seen); err != nil {
		return nil, err
	}
	return w, nil
}

// fill appends to list the distinct draws from seeds from, from+1, ...
// that fit the strata, until it holds the given number of stratum cycles.
// Candidates are generated in parallel batches but accepted in seed order,
// so the list does not depend on the goroutine schedule.
func (w *solveMix) fill(list *[]mixReq, cycles int, from int64, idFormat string, seen map[string]bool) error {
	quota := map[string]int{}
	for k, n := range mixStrata {
		quota[k] = n * cycles
	}
	want := mixCycle * cycles
	for s := from; len(*list) < want; s += mixBatch {
		if s-from >= 1<<19 {
			return fmt.Errorf("solve-mix: strata not filled after %d draws", s-from)
		}
		for _, c := range mixCandidates(s, mixBatch) {
			if len(*list) == want || quota[c.family] == 0 || seen[c.hash] {
				continue
			}
			seen[c.hash] = true
			quota[c.family]--
			*list = append(*list, mixReq{id: fmt.Sprintf(idFormat, w.seed, len(*list)), body: c.body, expected: c.expected})
		}
	}
	return nil
}

const mixBatch = 256

type mixCandidate struct {
	family, hash string
	body         []byte // DIMACS
	expected     gen.Expectation
}

// mixCandidates generates the instances of seeds from..from+n-1 on two
// goroutines.
func mixCandidates(from int64, n int) []mixCandidate {
	out := make([]mixCandidate, n)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				inst := dataset.Generate(from+int64(i), mixScale)
				var buf bytes.Buffer
				_ = cnf.WriteDIMACS(&buf, inst.F) // a bytes.Buffer write cannot fail
				out[i] = mixCandidate{inst.Family, server.CanonicalHash(inst.F), buf.Bytes(), inst.Expected}
			}
		}(g)
	}
	wg.Wait()
	return out
}

func (w *solveMix) topology() topology { return topology{replicas: 1, workers: 2} }
func (w *solveMix) clients() int       { return 2 }
func (w *solveMix) size() int          { return len(w.reqs) }

func (w *solveMix) digest() (string, string) {
	return mixDigest(w.reqs), mixDigest(w.warm)
}

func mixDigest(reqs []mixReq) string {
	d := newDigester()
	for _, r := range reqs {
		d.add([]byte(r.id), r.body)
	}
	return d.sum()
}

const solvePath = "/v1/solve?policy=auto"

func (w *solveMix) warmup(d *deployment, cs []*client) error {
	recs := make([]opRecord, len(w.warm))
	closedLoop(cs, len(w.warm), func(c *client, i int) {
		r := w.warm[i]
		recs[i] = opRecord{reqID: r.id, ex: []*exchange{c.do("POST", d.entry+solvePath, r.id, r.body)}}
	})
	checkMix(w.warm, recs)
	for _, r := range recs {
		if !r.ok {
			return fmt.Errorf("%s: %s", r.reqID, r.why)
		}
	}
	return nil
}

func (w *solveMix) op(d *deployment, c *client, i int, rec *opRecord) {
	r := w.reqs[i]
	ex := c.do("POST", d.entry+solvePath, r.id, r.body)
	rec.reqID, rec.ex, rec.lat = r.id, []*exchange{ex}, ex.latency()
	if c.spans == nil {
		return
	}
	id := c.record("client.solve", r.id, 0, ex.start, ex.end)
	var resp solveResponse
	if ex.ok() && ex.hdr.Get("X-Cache") != "hit" && json.Unmarshal(ex.body, &resp) == nil {
		c.recordServerStages(id, r.id, ex.end, resp.Timings.TotalNS,
			stage{"server.queue", resp.Timings.QueueNS},
			stage{"server.inference", resp.Policy.InferenceNS},
			stage{"server.solve", resp.Timings.SolveNS})
	}
}

func (w *solveMix) check(recs []opRecord) { checkMix(w.reqs, recs) }

// solveResponse is the part of the /v1/solve body the benchmark reads.
type solveResponse struct {
	Status string `json:"status"`
	Stop   string `json:"stop"`
	Model  []int  `json:"model"`
	Policy struct {
		Name        string `json:"name"`
		Fallback    string `json:"fallback"`
		InferenceNS int64  `json:"inference_ns"`
	} `json:"policy"`
	Stats struct {
		Propagations int64 `json:"propagations"`
		Conflicts    int64 `json:"conflicts"`
	} `json:"stats"`
	Timings struct {
		QueueNS int64 `json:"queue_ns"`
		SolveNS int64 `json:"solve_ns"`
		TotalNS int64 `json:"total_ns"`
	} `json:"timings"`
}

// checkMix verifies every answer: a SAT model must satisfy the exact
// formula sent; an UNSAT must match the generator's expectation where its
// construction fixes one, and is otherwise confirmed by an independent
// in-process solve under the solver's stock options (not the server's
// aggressive reduce schedule). UNKNOWN and HTTP errors are failures.
func checkMix(reqs []mixReq, recs []opRecord) {
	var confirm []int
	for i := range recs {
		r := &recs[i]
		r.ok = true
		ex := r.ex[0]
		if !ex.ok() {
			r.fail("%s", ex.describe())
			continue
		}
		var resp solveResponse
		if err := json.Unmarshal(ex.body, &resp); err != nil {
			r.fail("decode response: %v", err)
			continue
		}
		r.props = resp.Stats.Propagations
		switch resp.Status {
		case "SAT":
			f, err := cnf.ParseDIMACS(bytes.NewReader(reqs[i].body))
			if err != nil {
				r.fail("parse sent formula: %v", err)
			} else if err := checkModel(f.Clauses, f.NumVars, resp.Model); err != nil {
				r.fail(wrongAnswer+"SAT model: %v", err)
			}
		case "UNSAT":
			switch reqs[i].expected {
			case gen.ExpectSat:
				r.fail(wrongAnswer + "UNSAT for a satisfiable construction")
			case gen.ExpectUnknown:
				confirm = append(confirm, i)
			}
		default:
			r.fail("status %s (%s)", resp.Status, resp.Stop)
		}
	}
	// Confirm the remaining UNSAT answers two at a time.
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				confirmUnsat(reqs[i].body, &recs[i])
			}
		}()
	}
	for _, i := range confirm {
		next <- i
	}
	close(next)
	wg.Wait()
}

func confirmUnsat(body []byte, r *opRecord) {
	f, err := cnf.ParseDIMACS(bytes.NewReader(body))
	if err != nil {
		r.fail("parse sent formula: %v", err)
		return
	}
	res, err := solver.SolveContext(context.Background(), f, solver.Options{})
	switch {
	case err != nil:
		r.fail("confirming solve: %v", err)
	case res.Status == solver.Sat:
		r.fail(wrongAnswer + "UNSAT, but an independent solve found a model")
	case res.Status != solver.Unsat:
		r.fail("confirming solve ended %v", res.Status)
	}
}

// checkModel reports whether the DIMACS literals assign every variable
// at most once and satisfy every clause.
func checkModel(clauses []cnf.Clause, numVars int, model []int) error {
	val := make([]int8, numVars+1)
	for _, l := range model {
		v, s := l, int8(1)
		if l < 0 {
			v, s = -l, -1
		}
		if v == 0 || v > numVars {
			if v == 0 {
				return fmt.Errorf("literal 0 in model")
			}
			continue // a variable the formula does not use
		}
		if val[v] != 0 {
			return fmt.Errorf("variable %d assigned twice", v)
		}
		val[v] = s
	}
	for ci, c := range clauses {
		sat := false
		for _, l := range c {
			v, s := int(l), int8(1)
			if l < 0 {
				v, s = -v, -1
			}
			if val[v] == s {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("clause %d %v unsatisfied", ci, c)
		}
	}
	return nil
}

func (w *solveMix) layers(d *deployment, cs []*client, recs []opRecord, rp *replayer) (map[string]metric, error) {
	m := zeroLayers()
	resps := make([]solveResponse, len(recs))
	freq, fallback, hits := 0, 0, 0
	var queue time.Duration
	for i, r := range recs {
		if err := json.Unmarshal(r.ex[0].body, &resps[i]); err != nil {
			return nil, fmt.Errorf("%s: %v", r.reqID, err)
		}
		if resps[i].Policy.Name == "frequency" {
			freq++
		}
		if resps[i].Policy.Fallback != "" {
			fallback++
		}
		if r.ex[0].hdr.Get("X-Cache") == "hit" {
			hits++
		} else {
			queue += time.Duration(resps[i].Timings.QueueNS)
		}
	}
	n := len(recs)
	set(m, "portfolio.frequency_share", share(freq, n))
	set(m, "portfolio.fallback_ratio", share(fallback, n))
	set(m, "server.cache_hit_ratio", share(hits, n))
	if n > hits {
		set(m, "server.queue_ms", ms(queue)/float64(n-hits))
	}
	set(m, "cluster.backend_share_max", 1) // one replica serves every request

	model, err := loadModel(rp.model)
	if err != nil {
		return nil, err
	}
	sel := portfolio.NewSelector(model)
	idx := sample(n, mixReplay)
	var wait, overhead time.Duration
	var props, conflicts int64
	mismatches := 0
	for _, i := range idx {
		id := recs[i].reqID
		resp := &resps[i]
		root, done := rp.root("replay.solve", id)
		var f *cnf.Formula
		var perr error
		parse := rp.call("cnf.ParseDIMACS", id, root, func() { f, perr = cnf.ParseDIMACS(bytes.NewReader(w.reqs[i].body)) })
		if perr != nil {
			return nil, perr
		}
		hash := rp.call("server.CanonicalHash", id, root, func() { server.CanonicalHash(f) })
		var g *satgraph.VCG
		rp.call("satgraph.BuildVCG", id, root, func() { g = satgraph.BuildVCG(f) })
		rp.call("core.Model.PredictGraph", id, root, func() { model.PredictGraph(g) })
		var ch portfolio.Choice
		choose := rp.call("portfolio.Selector.Choose", id, root, func() { ch = sel.Choose(f) })
		pol, err := deletion.ByName(resp.Policy.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", id, err)
		}
		var res solver.Result
		var serr error
		rp.call("solver.SolveContext", id, root, func() {
			res, serr = solver.SolveContext(context.Background(), f, dataset.SolveOptions(pol, 0))
		})
		done()
		if serr != nil {
			return nil, fmt.Errorf("%s: replayed solve: %v", id, serr)
		}
		if ch.Policy.Name() != resp.Policy.Name || res.Stats.Propagations != resp.Stats.Propagations {
			mismatches++
		}
		props += res.Stats.Propagations
		conflicts += res.Stats.Conflicts
		wait += time.Duration(resp.Policy.InferenceNS) - choose
		overhead += recs[i].lat - time.Duration(resp.Timings.TotalNS) - parse - hash
	}
	fmt.Printf("replayed %d of %d requests; %d disagree with the server's policy or propagation count\n",
		len(idx), n, mismatches)
	k := float64(len(idx))
	parse, hash := rp.stat("cnf.ParseDIMACS"), rp.stat("server.CanonicalHash")
	solve := rp.stat("solver.SolveContext")
	var bytesIn int
	for _, i := range idx {
		bytesIn += len(w.reqs[i].body)
	}
	set(m, "cnf.parse_ms", parse.meanMS())
	set(m, "cnf.parse_mb_per_s", float64(bytesIn)/1e6/parse.dur.Seconds())
	set(m, "cnf.parse_allocs_per_op", parse.allocsPerOp())
	set(m, "server.hash_ms", hash.meanMS())
	set(m, "server.hash_allocs_per_op", hash.allocsPerOp())
	set(m, "satgraph.vcg_ms", rp.stat("satgraph.BuildVCG").meanMS())
	set(m, "core.predict_ms", rp.stat("core.Model.PredictGraph").meanMS())
	set(m, "core.predict_allocs_per_op", rp.stat("core.Model.PredictGraph").allocsPerOp())
	set(m, "portfolio.choose_ms", rp.stat("portfolio.Selector.Choose").meanMS())
	set(m, "portfolio.inference_wait_ms", ms(wait)/k)
	set(m, "solver.solve_ms", solve.meanMS())
	set(m, "solver.props_per_s", float64(props)/solve.dur.Seconds())
	set(m, "solver.conflicts_per_op", float64(conflicts)/k)
	set(m, "solver.alloc_bytes_per_op", solve.bytesPerOp())
	set(m, "server.overhead_ms", ms(overhead)/k)
	return m, nil
}

// loadModel reads the selector file the servers load.
func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.LoadModelFile(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return m, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"neuroselect/internal/aiger"
	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/server"
	"neuroselect/internal/solver"
)

const (
	// bmcRate is the nominal op rate that sizes the request list: about
	// seconds×bmcRate ops, in whole cycles of the width×depth grid.
	bmcRate   = 9
	bmcWarm   = 3
	bmcReplay = 16 // ops replayed in process by the traced run
	// bmcStride is how many frames one deepening step adds: the op queries
	// every bmcStride-th depth, so an exchange carries several milliseconds
	// of search rather than under one, and the run times search, not the
	// wake-ups of hundreds of tiny round trips a second.
	bmcStride = 10
)

// Every grid cell appears once per cycle, so every seed sends the same mix
// of widths and depths; the seed picks their order and each op's initial
// counter value. An op lasts roughly 40 to 250 ms over 12 to 18 exchanges.
// Every depth is a multiple of bmcStride, so an op queries its last frame.
var (
	bmcWidths = []int{8, 10, 12}
	bmcDepths = []int{50, 60, 70, 80}
)

// bmcOp is one whole BMC deepening on one warm session.
type bmcOp struct {
	id           string
	width, depth int
	init         uint64
}

// sessionBMC drives the warm-session layer the way a model checker does:
// one sequential caller creates a session from the initial state of an
// add-1-or-2 counter, deepens it bmcStride frames per step, asking at each
// depth k it reaches for the unreachable value init+2k+1 (UNSAT) and then
// the reachable init+2k (SAT), and deletes the session.
type sessionBMC struct {
	ops, warm []bmcOp
}

func newSessionBMC(seed int64, seconds int) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	cell := len(bmcWidths) * len(bmcDepths)
	cycles := (seconds*bmcRate + cell - 1) / cell
	w := &sessionBMC{}
	for c := 0; c < cycles; c++ {
		for _, g := range rng.Perm(cell) {
			width := bmcWidths[g%len(bmcWidths)]
			w.ops = append(w.ops, bmcOp{fmt.Sprintf("bmc-%d-%04d", seed, len(w.ops)),
				width, bmcDepths[g/len(bmcWidths)], uint64(rng.Int63n(1 << width))})
		}
	}
	for i := 0; i < bmcWarm; i++ {
		w.warm = append(w.warm, bmcOp{fmt.Sprintf("bmc-%d-w%d", seed, i), 8, 2 * bmcStride, uint64(rng.Int63n(1 << 8))})
	}
	return w, nil
}

func (w *sessionBMC) topology() topology { return topology{replicas: 1, workers: 1} }
func (w *sessionBMC) clients() int       { return 1 }
func (w *sessionBMC) size() int          { return len(w.ops) }

func (w *sessionBMC) digest() (string, string) {
	dg := func(ops []bmcOp) string {
		d := newDigester()
		for _, o := range ops {
			p := planBMC(o)
			d.add([]byte(o.id), p.create)
			for _, s := range p.steps {
				d.add(s)
			}
		}
		return d.sum()
	}
	return dg(w.ops), dg(w.warm)
}

// bmcPlan is an op's requests and what their answers must satisfy.
type bmcPlan struct {
	create  []byte
	steps   [][]byte     // per queried depth k: add the frames up to k and query init+2k+1, then query init+2k
	clauses []cnf.Clause // initial-state units followed by every frame
	units   int          // how many initial-state units lead clauses
	// per queried depth: the depth, clause count and variable count after
	// its frames, and the assumptions of its two queries.
	depth, frameEnd, vars []int
	unsat, sat            [][]cnf.Lit
}

type stepRequest struct {
	Add         []cnf.Clause `json:"add,omitempty"`
	Assumptions []cnf.Lit    `json:"assumptions"`
}

func planBMC(o bmcOp) *bmcPlan {
	u, err := aiger.NewUnroller(aiger.CounterAIG(o.width), o.width)
	if err != nil {
		panic(err) // the counter AIG always has width state bits
	}
	p := &bmcPlan{clauses: u.Init(o.init)}
	p.units = len(p.clauses)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "p cnf %d %d\n", o.width, len(p.clauses))
	for _, c := range p.clauses {
		fmt.Fprintf(&buf, "%d 0\n", c[0])
	}
	p.create = buf.Bytes()
	mask := uint64(1)<<o.width - 1
	var frames []cnf.Clause
	for k := 1; k <= o.depth; k++ {
		frame, _ := u.Step()
		frames = append(frames, frame...)
		if k%bmcStride != 0 {
			continue
		}
		p.clauses = append(p.clauses, frames...)
		p.depth = append(p.depth, k)
		p.frameEnd = append(p.frameEnd, len(p.clauses))
		p.vars = append(p.vars, u.NumVars())
		unsat := u.StateEquals((o.init + uint64(2*k+1)) & mask)
		sat := u.StateEquals((o.init + uint64(2*k)) & mask)
		p.unsat = append(p.unsat, unsat)
		p.sat = append(p.sat, sat)
		a, _ := json.Marshal(stepRequest{Add: frames, Assumptions: unsat})
		b, _ := json.Marshal(stepRequest{Assumptions: sat})
		p.steps = append(p.steps, a, b)
		frames = nil
	}
	return p
}

// stepResponse is the part of a session step body the benchmark reads.
type stepResponse struct {
	Status string `json:"status"`
	Model  []int  `json:"model"`
	Core   []int  `json:"core"`
	Stop   string `json:"stop"`
	Stats  struct {
		Propagations int64 `json:"propagations"`
	} `json:"stats"`
	Timings struct {
		SolveNS int64 `json:"solve_ns"`
		TotalNS int64 `json:"total_ns"`
	} `json:"timings"`
}

func (w *sessionBMC) warmup(d *deployment, cs []*client) error {
	for _, o := range w.warm {
		var rec opRecord
		w.run(d, cs[0], o, &rec)
		if !rec.ok {
			return fmt.Errorf("%s: %s", rec.reqID, rec.why)
		}
	}
	return nil
}

func (w *sessionBMC) op(d *deployment, c *client, i int, rec *opRecord) { w.run(d, c, w.ops[i], rec) }

// run performs one op. Its latency is the sum of its exchanges: the time
// the caller waited on the service. Each answer is checked between
// exchanges, off that clock, and the response body is then dropped.
func (w *sessionBMC) run(d *deployment, c *client, o bmcOp, rec *opRecord) {
	p := planBMC(o)
	rec.reqID, rec.ok = o.id, true
	opID := int64(0)
	if c.spans != nil {
		opID = newSpanID()
	}
	opStart := time.Now()
	keep := func(name, reqID string, ex *exchange, srvTotal, solve int64) {
		rec.lat += ex.latency()
		ex.body = nil
		rec.ex = append(rec.ex, ex)
		rec.srv = append(rec.srv, time.Duration(srvTotal))
		id := c.record(name, reqID, opID, ex.start, ex.end)
		if solve > 0 {
			c.recordServerStages(id, reqID, ex.end, srvTotal, stage{"server.solve", solve})
		}
	}
	defer func() {
		if c.spans != nil {
			*c.spans = append(*c.spans, span{ID: opID, Name: "client.bmc_op", ReqID: o.id, Start: opStart, End: time.Now()})
		}
	}()

	createID := o.id + "-create"
	ex := c.do("POST", d.entry+"/v1/sessions", createID, p.create)
	var created struct {
		ID string `json:"id"`
	}
	createdOK := ex.ok() && json.Unmarshal(ex.body, &created) == nil && created.ID != ""
	if !createdOK {
		rec.fail("create: %s", ex.describe())
	}
	keep("client.session_create", createID, ex, 0, 0)
	if !createdOK {
		return
	}
	sess := d.entry + "/v1/sessions/" + created.ID

	for s, body := range p.steps {
		k := s / 2 // queried depth index
		depth := p.depth[k]
		stepID := fmt.Sprintf("%s-%03d", o.id, s)
		ex := c.do("POST", sess+"/solve", stepID, body)
		var resp stepResponse
		if !ex.ok() {
			rec.fail("step %d: %s", s, ex.describe())
		} else if err := json.Unmarshal(ex.body, &resp); err != nil {
			rec.fail("step %d: decode: %v", s, err)
		} else if resp.Status == "UNKNOWN" {
			rec.fail("step %d: UNKNOWN (%s)", s, resp.Stop)
		} else if s%2 == 0 {
			if resp.Status != "UNSAT" {
				rec.fail(wrongAnswer+"depth %d: value init+%d reachable (%s)", depth, 2*depth+1, resp.Status)
			} else if err := coreWithin(resp.Core, p.unsat[k]); err != nil {
				rec.fail(wrongAnswer+"depth %d: %v", depth, err)
			}
		} else {
			if resp.Status != "SAT" {
				rec.fail(wrongAnswer+"depth %d: value init+%d unreachable (%s)", depth, 2*depth, resp.Status)
			} else if err := checkModel(p.clauses[:p.frameEnd[k]], p.vars[k], resp.Model); err != nil {
				rec.fail(wrongAnswer+"depth %d: %v", depth, err)
			} else if err := modelHolds(resp.Model, p.sat[k]); err != nil {
				rec.fail(wrongAnswer+"depth %d: %v", depth, err)
			}
		}
		rec.props = resp.Stats.Propagations
		keep("client.session_step", stepID, ex, resp.Timings.TotalNS, resp.Timings.SolveNS)
		if !rec.ok {
			break
		}
	}
	// The session always ends with a DELETE, also after a failed step.
	deleteID := o.id + "-delete"
	ex = c.do("DELETE", sess, deleteID, nil)
	if ex.err != nil || ex.code != http.StatusNoContent {
		rec.fail("delete: %s", ex.describe())
	}
	keep("client.session_delete", deleteID, ex, 0, 0)
}

// coreWithin checks that an UNSAT core uses only the query's assumptions.
func coreWithin(core []int, assumptions []cnf.Lit) error {
	in := map[int]bool{}
	for _, a := range assumptions {
		in[int(a)] = true
	}
	for _, l := range core {
		if !in[l] {
			return fmt.Errorf("core literal %d is not an assumption", l)
		}
	}
	return nil
}

// modelHolds checks that the model makes every assumption true.
func modelHolds(model []int, assumptions []cnf.Lit) error {
	in := map[int]bool{}
	for _, l := range model {
		in[l] = true
	}
	for _, a := range assumptions {
		if !in[int(a)] {
			return fmt.Errorf("model violates assumption %d", a)
		}
	}
	return nil
}

func (w *sessionBMC) check([]opRecord) {} // checked between exchanges

func (w *sessionBMC) layers(d *deployment, cs []*client, recs []opRecord, rp *replayer) (map[string]metric, error) {
	m := zeroLayers()
	var create, step, overhead time.Duration
	creates, steps := 0, 0
	for _, r := range recs {
		for j, ex := range r.ex {
			switch {
			case j == 0:
				create += ex.latency()
				creates++
			case j < len(r.ex)-1:
				step += ex.latency()
				overhead += ex.latency() - r.srv[j]
				steps++
			}
		}
	}
	set(m, "server.session_create_ms", ms(create)/float64(creates))
	set(m, "server.session_step_ms", ms(step)/float64(steps))
	set(m, "server.overhead_ms", ms(overhead)/float64(steps))
	set(m, "cluster.backend_share_max", 1) // one replica serves every request

	idx := sample(len(w.ops), bmcReplay)
	var props int64
	mismatches := 0
	for _, i := range idx {
		o := w.ops[i]
		p := planBMC(o)
		root, done := rp.root("replay.bmc_op", o.id)
		var f *cnf.Formula
		var err error
		rp.call("cnf.ParseDIMACS", o.id, root, func() { f, err = cnf.ParseDIMACS(bytes.NewReader(p.create)) })
		if err != nil {
			return nil, err
		}
		rp.call("server.CanonicalHash", o.id, root, func() { server.CanonicalHash(f) })
		var slv *solver.Solver
		rp.call("solver.New", o.id, root, func() {
			slv, err = solver.New(f, dataset.SolveOptions(deletion.DefaultPolicy{}, 0))
		})
		if err != nil {
			return nil, err
		}
		prev := p.units
		for k := range p.frameEnd {
			frame := p.clauses[prev:p.frameEnd[k]]
			prev = p.frameEnd[k]
			rp.call("solver.AddClause", o.id, root, func() {
				for _, c := range frame {
					if err == nil {
						err = slv.AddClause(c)
					}
				}
			})
			if err != nil {
				return nil, err
			}
			for _, as := range [][]cnf.Lit{p.unsat[k], p.sat[k]} {
				rp.call("solver.SolveUnderAssumptions", o.id, root, func() { slv.SolveUnderAssumptions(as) })
			}
		}
		done()
		props += slv.Stats().Propagations
		if slv.Stats().Propagations != recs[i].props {
			mismatches++
		}
	}
	fmt.Printf("replayed %d of %d ops; %d disagree with the server's propagation count\n",
		len(idx), len(recs), mismatches)
	add, solve := rp.stat("solver.AddClause"), rp.stat("solver.SolveUnderAssumptions")
	parse, hash := rp.stat("cnf.ParseDIMACS"), rp.stat("server.CanonicalHash")
	var bytesIn int
	for _, i := range idx {
		bytesIn += len(planBMC(w.ops[i]).create)
	}
	set(m, "cnf.parse_ms", parse.meanMS())
	set(m, "cnf.parse_mb_per_s", float64(bytesIn)/1e6/parse.dur.Seconds())
	set(m, "cnf.parse_allocs_per_op", parse.allocsPerOp())
	set(m, "server.hash_ms", hash.meanMS())
	set(m, "server.hash_allocs_per_op", hash.allocsPerOp())
	set(m, "solver.assume_ms", ms(add.dur+solve.dur)/float64(solve.calls))
	set(m, "solver.assume_props_per_s", float64(props)/(add.dur+solve.dur).Seconds())
	return m, nil
}

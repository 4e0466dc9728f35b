package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/server"
)

const (
	ingestBases = 16
	// A random 3-SAT base at clause/variable ratio 2 is satisfiable with
	// overwhelming probability, solves in well under a tenth of a second
	// with almost no conflicts, and renders to about 1.2 MB of DIMACS.
	ingestVars    = 30000
	ingestClauses = 2 * ingestVars
	// ingestRate is the nominal op rate that sizes the request list.
	ingestRate   = 8
	ingestWarm   = 4  // permuted warm-up uploads, after the fill
	ingestReplay = 40 // uploads parsed and hashed in process by the traced run
	ingestHops   = 20 // uploads sent both through the coordinator and direct
	// ingestPath pins the policy so the warm-up fill skips inference; the
	// timed requests are cache hits either way.
	ingestPath = "/v1/solve?policy=default"
)

// ingestBase is one large formula every upload permutes.
type ingestBase struct {
	clauses []cnf.Clause
	dimacs  []byte // original clause order, sent by the warm-up fill
	status  string // answer the fill established and verified
}

// ingestReq is one upload: a fresh clause- and literal-order permutation
// of a base formula, rendered from its seed just before it is sent.
type ingestReq struct {
	id   string
	base int
	perm int64
}

// ingestCluster isolates DIMACS read, parse and canonical hashing, and the
// coordinator hop: the warm-up fills each owner replica's cache, so every
// timed upload is a cache hit that skips selection and search, and the
// coordinator and then the replica each parse and hash it once.
type ingestCluster struct {
	bases      []ingestBase
	reqs, warm []ingestReq
	verified   map[[32]byte]error // response body digest → its check
}

func newIngest(seed int64, seconds int) (workload, error) {
	w := &ingestCluster{verified: map[[32]byte]error{}}
	base := seed << 20
	for b := 0; b < ingestBases; b++ {
		inst := gen.RandomKSAT(ingestVars, ingestClauses, 3, base+1<<18+int64(b))
		w.bases = append(w.bases, ingestBase{clauses: inst.F.Clauses, dimacs: []byte(cnf.DIMACSString(inst.F))})
	}
	// Whole cycles of the bases, so every seed uploads each base equally
	// often.
	n := (seconds*ingestRate + ingestBases - 1) / ingestBases * ingestBases
	for i := 0; i < n; i++ {
		w.reqs = append(w.reqs, ingestReq{fmt.Sprintf("ing-%d-%05d", seed, i), i % ingestBases, base + int64(i)})
	}
	for i := 0; i < ingestWarm; i++ {
		w.warm = append(w.warm, ingestReq{fmt.Sprintf("ing-%d-w%03d", seed, i), i % ingestBases, base + 1<<19 + int64(i)})
	}
	return w, nil
}

func (w *ingestCluster) topology() topology {
	return topology{replicas: 2, coordinator: true, workers: 2}
}
func (w *ingestCluster) clients() int { return 2 }
func (w *ingestCluster) size() int    { return len(w.reqs) }

func (w *ingestCluster) digest() (string, string) {
	dg := func(reqs []ingestReq) string {
		d := newDigester()
		for _, b := range w.bases {
			d.add(b.dimacs)
		}
		for _, r := range reqs {
			d.add([]byte(r.id), []byte(strconv.Itoa(r.base)), []byte(strconv.FormatInt(r.perm, 10)))
		}
		return d.sum()
	}
	return dg(w.reqs), dg(w.warm)
}

// body renders an upload: the base's clauses in a random order, each with
// its literals in a random order.
func (w *ingestCluster) body(r ingestReq) []byte {
	b := &w.bases[r.base]
	rng := rand.New(rand.NewSource(r.perm))
	buf := make([]byte, 0, len(b.dimacs)+64)
	buf = fmt.Appendf(buf, "p cnf %d %d\n", ingestVars, len(b.clauses))
	lits := make(cnf.Clause, 0, 8)
	for _, ci := range rng.Perm(len(b.clauses)) {
		lits = append(lits[:0], b.clauses[ci]...)
		rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
		for _, l := range lits {
			buf = strconv.AppendInt(buf, int64(l), 10)
			buf = append(buf, ' ')
		}
		buf = append(buf, '0', '\n')
	}
	return buf
}

func (w *ingestCluster) warmup(d *deployment, cs []*client) error {
	// Fill: each base in its original order, solved by its owner replica.
	errs := make([]error, len(w.bases))
	closedLoop(cs, len(w.bases), func(c *client, b int) { errs[b] = w.fill(d, c, b) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	recs := make([]opRecord, len(w.warm))
	closedLoop(cs, len(w.warm), func(c *client, i int) {
		r := w.warm[i]
		recs[i] = opRecord{reqID: r.id, ex: []*exchange{c.do("POST", d.entry+ingestPath, r.id, w.body(r))}}
	})
	w.checkAll(w.warm, recs)
	for _, r := range recs {
		if !r.ok {
			return fmt.Errorf("%s: %s", r.reqID, r.why)
		}
	}
	return nil
}

// fill sends base b in its original order and records the answer every
// permutation of it must get.
func (w *ingestCluster) fill(d *deployment, c *client, b int) error {
	base := &w.bases[b]
	id := fmt.Sprintf("ing-fill-%d", b)
	ex := c.do("POST", d.entry+ingestPath, id, base.dimacs)
	if !ex.ok() {
		return fmt.Errorf("%s: %s", id, ex.describe())
	}
	var resp solveResponse
	if err := json.Unmarshal(ex.body, &resp); err != nil {
		return fmt.Errorf("%s: %v", id, err)
	}
	if resp.Status != "SAT" {
		return fmt.Errorf("%s: base formula answered %s; the benchmark needs a satisfiable base", id, resp.Status)
	}
	if err := checkModel(base.clauses, ingestVars, resp.Model); err != nil {
		return fmt.Errorf("%s: %s%v", id, wrongAnswer, err)
	}
	base.status = resp.Status
	return nil
}

func (w *ingestCluster) op(d *deployment, c *client, i int, rec *opRecord) {
	r := w.reqs[i]
	body := w.body(r)
	ex := c.do("POST", d.entry+ingestPath, r.id, body)
	rec.reqID, rec.ex, rec.lat = r.id, []*exchange{ex}, ex.latency()
	id := c.record("client.ingest", r.id, 0, ex.start, ex.end)
	// A cache hit's timings are a stale copy from the original solve, so
	// server stages are recorded only for a miss.
	var resp solveResponse
	if c.spans != nil && ex.ok() && ex.hdr.Get("X-Cache") == "miss" && json.Unmarshal(ex.body, &resp) == nil {
		c.recordServerStages(id, r.id, ex.end, resp.Timings.TotalNS,
			stage{"server.queue", resp.Timings.QueueNS},
			stage{"server.solve", resp.Timings.SolveNS})
	}
}

func (w *ingestCluster) check(recs []opRecord) {
	w.checkAll(w.reqs, recs)
	fmt.Printf("routed per backend: %v\n", routedPerBackend(recs))
}

// routedPerBackend counts the ops each replica answered, by X-Backend.
func routedPerBackend(recs []opRecord) map[string]int {
	n := map[string]int{}
	for _, r := range recs {
		if r.ex[0].hdr != nil {
			n[r.ex[0].hdr.Get("X-Backend")]++
		}
	}
	return n
}

// checkAll verifies that every upload got its base formula's status and a
// model satisfying the base's clause set, which is the clause set of the
// permuted upload. Hits return the cached body verbatim, so each distinct
// body is checked once.
func (w *ingestCluster) checkAll(reqs []ingestReq, recs []opRecord) {
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
		base := &w.bases[reqs[i].base]
		if resp.Status == "UNKNOWN" {
			r.fail("UNKNOWN (%s)", resp.Stop)
			continue
		}
		if resp.Status != base.status {
			r.fail(wrongAnswer+"%s for a base answered %s", resp.Status, base.status)
			continue
		}
		key := sha256.Sum256(ex.body)
		err, seen := w.verified[key]
		if !seen {
			err = checkModel(base.clauses, ingestVars, resp.Model)
			w.verified[key] = err
		}
		if err != nil {
			r.fail(wrongAnswer+"SAT model: %v", err)
		}
	}
}

func (w *ingestCluster) layers(d *deployment, cs []*client, recs []opRecord, rp *replayer) (map[string]metric, error) {
	m := zeroLayers()
	hits, misses := 0, 0
	var queue time.Duration
	for _, r := range recs {
		if r.ex[0].hdr.Get("X-Cache") == "hit" {
			hits++
			continue
		}
		var resp solveResponse
		if err := json.Unmarshal(r.ex[0].body, &resp); err == nil {
			misses++
			queue += time.Duration(resp.Timings.QueueNS)
		}
	}
	most := 0
	for _, c := range routedPerBackend(recs) {
		most = max(most, c)
	}
	set(m, "server.cache_hit_ratio", share(hits, len(recs)))
	set(m, "cluster.backend_share_max", share(most, len(recs)))
	if misses > 0 {
		set(m, "server.queue_ms", ms(queue)/float64(misses))
	}

	idx := sample(len(recs), ingestReplay)
	var overhead time.Duration
	var bytesIn int
	for _, i := range idx {
		r := w.reqs[i]
		body := w.body(r)
		bytesIn += len(body)
		root, done := rp.root("replay.ingest", r.id)
		var f *cnf.Formula
		var err error
		parse := rp.call("cnf.ParseDIMACS", r.id, root, func() { f, err = cnf.ParseDIMACS(bytes.NewReader(body)) })
		if err != nil {
			return nil, err
		}
		hash := rp.call("server.CanonicalHash", r.id, root, func() { server.CanonicalHash(f) })
		done()
		// The coordinator and the replica each parse and hash the upload.
		overhead += recs[i].lat - 2*(parse+hash)
	}
	parse, hash := rp.stat("cnf.ParseDIMACS"), rp.stat("server.CanonicalHash")
	set(m, "cnf.parse_ms", parse.meanMS())
	set(m, "cnf.parse_mb_per_s", float64(bytesIn)/1e6/parse.dur.Seconds())
	set(m, "cnf.parse_allocs_per_op", parse.allocsPerOp())
	set(m, "server.hash_ms", hash.meanMS())
	set(m, "server.hash_allocs_per_op", hash.allocsPerOp())
	set(m, "server.overhead_ms", ms(overhead)/float64(len(idx)))

	hop, err := w.hopProbe(d, cs[0])
	if err != nil {
		return nil, err
	}
	set(m, "cluster.hop_ms", ms(hop))
	return m, nil
}

// hopProbe sends uploads one at a time through the coordinator and then
// the same bytes straight to the replica that answered, and returns the
// mean latency difference: the coordinator hop.
func (w *ingestCluster) hopProbe(d *deployment, c *client) (time.Duration, error) {
	direct := newClients(1, new(atomic.Int64))[0]
	var hop time.Duration
	idx := sample(len(w.reqs), ingestHops)
	for _, i := range idx {
		r := w.reqs[i]
		body := w.body(r)
		via := c.do("POST", d.entry+ingestPath, r.id+"-via", body)
		if !via.ok() {
			return 0, fmt.Errorf("hop probe %s: %s", r.id, via.describe())
		}
		backend, ok := d.backends[via.hdr.Get("X-Backend")]
		if !ok {
			return 0, fmt.Errorf("hop probe %s: unknown X-Backend %q", r.id, via.hdr.Get("X-Backend"))
		}
		dir := direct.do("POST", backend+ingestPath, r.id+"-direct", body)
		if !dir.ok() {
			return 0, fmt.Errorf("hop probe %s direct: %s", r.id, dir.describe())
		}
		hop += via.latency() - dir.latency()
	}
	return hop / time.Duration(len(idx)), nil
}

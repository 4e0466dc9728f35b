package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval: a client request, a server-reported stage,
// or a replayed layer call. Spans of one request share its X-Request-ID.
type span struct {
	ID     int64
	Parent int64 // 0 for a root
	Name   string
	ReqID  string
	Start  time.Time
	End    time.Time
}

var spanSeq atomic.Int64

func newSpanID() int64 { return spanSeq.Add(1) }

// record appends a span to the client's traced-pass buffer and returns its
// id; outside the traced pass it records nothing and returns 0.
func (c *client) record(name, reqID string, parent int64, start, end time.Time) int64 {
	if c.spans == nil {
		return 0
	}
	id := newSpanID()
	*c.spans = append(*c.spans, span{ID: id, Parent: parent, Name: name, ReqID: reqID, Start: start, End: end})
	return id
}

// stage is one server-reported stage duration.
type stage struct {
	name string
	ns   int64
}

// recordServerStages records the stages a response reports as children of
// the request span. Their durations are the server's own; their placement
// is estimated: the server's total interval is taken to end when the
// response arrived, and its stages run back to back from its start.
func (c *client) recordServerStages(parent int64, reqID string, end time.Time, totalNS int64, stages ...stage) {
	if c.spans == nil {
		return
	}
	at := end.Add(-time.Duration(totalNS))
	for _, s := range stages {
		next := at.Add(time.Duration(s.ns))
		c.record(s.name, reqID, parent, at, next)
		at = next
	}
}

// layerStat accumulates one replayed layer's calls.
type layerStat struct {
	calls   int
	dur     time.Duration
	mallocs uint64
	bytes   uint64
}

func (s *layerStat) meanMS() float64 {
	if s.calls == 0 {
		return 0
	}
	return ms(s.dur) / float64(s.calls)
}

func (s *layerStat) allocsPerOp() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.mallocs) / float64(s.calls)
}

func (s *layerStat) bytesPerOp() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.bytes) / float64(s.calls)
}

// replayer calls layer functions in process on one goroutine, so the
// runtime.MemStats deltas around each call belong to that call.
type replayer struct {
	model string // selector file the servers load
	spans []span
	stats map[string]*layerStat
}

func newReplayer(model string) *replayer {
	return &replayer{model: model, stats: map[string]*layerStat{}}
}

func (r *replayer) stat(name string) *layerStat {
	s := r.stats[name]
	if s == nil {
		s = &layerStat{}
		r.stats[name] = s
	}
	return s
}

// call times f as one call of the named layer under the given parent span.
func (r *replayer) call(name, reqID string, parent int64, f func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	s := r.stat(name)
	s.calls++
	s.dur += end.Sub(start)
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.bytes += m1.TotalAlloc - m0.TotalAlloc
	r.spans = append(r.spans, span{ID: newSpanID(), Parent: parent, Name: name, ReqID: reqID, Start: start, End: end})
	return end.Sub(start)
}

// root opens a replay root span; the returned func closes it.
func (r *replayer) root(name, reqID string) (int64, func()) {
	id := newSpanID()
	start := time.Now()
	return id, func() {
		r.spans = append(r.spans, span{ID: id, Name: name, ReqID: reqID, Start: start, End: time.Now()})
	}
}

// tracedRun starts a fresh deployment, replays the request list with
// spans on, replays the layer calls in process, writes every span to a
// file, prints each span name's self time, and returns the per-layer
// metrics with the tracing overhead against the untraced pass.
func tracedRun(cfg config, wl workload, untraced *pass) (map[string]metric, error) {
	d, _, cs, err := deploy(cfg, wl)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	bufs := make([][]span, len(cs))
	for i, c := range cs {
		c.spans = &bufs[i]
	}
	tp, err := runPass(wl, d, cs)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		c.spans = nil
	}
	failed := 0
	for _, r := range tp.recs {
		if !r.ok {
			failed++
		}
	}
	if failed > 0 {
		return nil, fmt.Errorf("traced pass: %d of %d ops failed", failed, len(tp.recs))
	}
	rp := newReplayer(cfg.model)
	layers, err := wl.layers(d, cs, tp.recs, rp)
	if err != nil {
		return nil, err
	}
	all := rp.spans
	for _, b := range bufs {
		all = append(all, b...)
	}
	path := filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, all); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(all), path)
	printSelfTimes(all)

	rpsU := float64(len(untraced.recs)) / untraced.wall.Seconds()
	rpsT := float64(len(tp.recs)) / tp.wall.Seconds()
	overhead := 100 * (rpsU/rpsT - 1)
	fmt.Printf("tracing overhead: untraced %.2f ops/s, traced %.2f ops/s, %.2f%%\n", rpsU, rpsT, overhead)
	layers["trace.overhead_pct"] = metric{overhead, "%"}
	return layers, nil
}

// writeSpans writes one JSON object per span, times in microseconds from
// the earliest span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var epoch time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent,omitempty"`
			Name    string  `json:"name"`
			ReqID   string  `json:"req_id"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{s.ID, s.Parent, s.Name, s.ReqID,
			float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3, float64(s.End.Sub(epoch).Nanoseconds()) / 1e3}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the call count, the total time and
// the self time: each span's duration minus the part of it its children
// cover.
func printSelfTimes(spans []span) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		calls       int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.calls++
		a.total += s.End.Sub(s.Start)
		a.self += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("self time by span:")
	for _, n := range names {
		a := byName[n]
		fmt.Printf("  %-28s calls %6d  total %10.3f ms  self %10.3f ms  self/call %8.4f ms\n",
			n, a.calls, ms(a.total), ms(a.self), ms(a.self)/float64(a.calls))
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// zeroLayers returns every per-layer metric at zero, for the workload to
// fill in the layers it exercises; a layer a workload bypasses stays 0.
func zeroLayers() map[string]metric {
	m := map[string]metric{}
	for _, l := range layerMetrics {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// layerMetrics names every per-layer metric with its unit.
var layerMetrics = []struct{ name, unit string }{
	{"cnf.parse_ms", "ms"},
	{"cnf.parse_mb_per_s", "MB/s"},
	{"cnf.parse_allocs_per_op", "count"},
	{"server.hash_ms", "ms"},
	{"server.hash_allocs_per_op", "count"},
	{"cluster.hop_ms", "ms"},
	{"cluster.backend_share_max", "ratio"},
	{"satgraph.vcg_ms", "ms"},
	{"core.predict_ms", "ms"},
	{"core.predict_allocs_per_op", "count"},
	{"portfolio.choose_ms", "ms"},
	{"portfolio.inference_wait_ms", "ms"},
	{"portfolio.frequency_share", "ratio"},
	{"portfolio.fallback_ratio", "ratio"},
	{"solver.solve_ms", "ms"},
	{"solver.props_per_s", "1/s"},
	{"solver.conflicts_per_op", "count"},
	{"solver.alloc_bytes_per_op", "bytes"},
	{"solver.assume_ms", "ms"},
	{"solver.assume_props_per_s", "1/s"},
	{"server.queue_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.session_step_ms", "ms"},
	{"server.session_create_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// set stores a metric under its declared unit.
func set(m map[string]metric, name string, v float64) {
	mm, ok := m[name]
	if !ok {
		panic("undeclared layer metric " + name)
	}
	mm.Value = v
	m[name] = mm
}

// sample returns at most max indexes spread evenly over 0..n-1, the same
// ones on every run of a seed.
func sample(n, max int) []int {
	step := (n + max - 1) / max
	if step < 1 {
		step = 1
	}
	var idx []int
	for i := 0; i < n; i += step {
		idx = append(idx, i)
	}
	return idx
}

// share returns part/whole, or 0 for an empty whole.
func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

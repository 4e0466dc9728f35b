package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupStarts is how many cold starts one run makes; setup_s is their
// median.
const setupStarts = 9

// workload is one traffic mix: its request list, generated from the seed,
// the topology it drives, and how its answers are checked.
type workload interface {
	topology() topology
	clients() int
	size() int // timed ops in the request list
	// digest identifies the timed request list and the warm-up list.
	digest() (timed, warm string)
	// warmup runs the untimed warm-up requests and checks their answers.
	warmup(d *deployment, cs []*client) error
	// op runs timed op i and fills rec. Checks that need no server-side
	// state may be left to check, which runs after the pass.
	op(d *deployment, c *client, i int, rec *opRecord)
	// check finishes verifying the pass's answers after timing stops.
	check(recs []opRecord)
	// layers replays the traced pass's inputs in process and returns the
	// per-layer metrics.
	layers(d *deployment, cs []*client, recs []opRecord, rp *replayer) (map[string]metric, error)
}

var workloadNames = []string{"solve-mix", "ingest-cluster", "session-bmc"}

func workloadByName(name string) (func(seed int64, seconds int) (workload, error), bool) {
	switch name {
	case "solve-mix":
		return newSolveMix, true
	case "ingest-cluster":
		return newIngest, true
	case "session-bmc":
		return newSessionBMC, true
	}
	return nil, false
}

// opRecord is the outcome of one timed op.
type opRecord struct {
	reqID string
	lat   time.Duration   // time the caller waited on the service
	ex    []*exchange     // responses kept for check and the layer metrics
	srv   []time.Duration // server-reported total per exchange, 0 if none
	props int64           // propagations reported by the server for the op
	ok    bool            // answered and verified
	why   string          // first failure, when !ok
}

func (r *opRecord) fail(format string, args ...any) {
	if r.why == "" {
		r.why = fmt.Sprintf(format, args...)
	}
	r.ok = false
}

// pass is one replay of the whole timed request list.
type pass struct {
	recs     []opRecord
	wall     time.Duration
	cpuTicks int64
	conns    int64 // connections the clients opened, warm-up included
}

// runPass replays the timed list on a warm deployment.
func runPass(wl workload, d *deployment, cs []*client) (*pass, error) {
	recs := make([]opRecord, wl.size())
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	wall := closedLoop(cs, len(recs), func(c *client, i int) { wl.op(d, c, i, &recs[i]) })
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	fmt.Printf("pass: %.2fs, host steal %.1f%% of CPU time\n", wall.Seconds(),
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	wl.check(recs)
	return &pass{recs: recs, wall: wall, cpuTicks: cpu1 - cpu0, conns: cs[0].conns.Load()}, nil
}

// deploy cold-starts the workload's topology setupStarts times, keeps the
// last deployment, and warms it up with fresh clients.
func deploy(cfg config, wl workload) (*deployment, []time.Duration, []*client, error) {
	d, setups, err := coldStarts(cfg.serveBin, cfg.model, wl.topology(), setupStarts)
	if err != nil {
		return nil, nil, nil, err
	}
	cs := newClients(wl.clients(), new(atomic.Int64))
	if err := wl.warmup(d, cs); err != nil {
		d.stop()
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, setups, cs, nil
}

// runWorkload is one benchmark run: the untraced pass gives the end-to-end
// metrics; with tracing on, a traced pass on a fresh deployment and the
// in-process replay give the per-layer metrics.
func runWorkload(cfg config) (*result, error) {
	t0 := time.Now()
	mk, _ := workloadByName(cfg.workload)
	wl, err := mk(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("generated the request list in %.2fs\n", time.Since(t0).Seconds())
	timedDigest, warmDigest := wl.digest()
	fmt.Printf("workload %s seed %d: %d timed ops, request-list digest %s, warm-up digest %s\n",
		cfg.workload, cfg.seed, wl.size(), timedDigest, warmDigest)
	t := wl.topology()
	fmt.Printf("nproc %d, clients %d, replicas %d, coordinator %v, server -workers %d\n",
		runtime.NumCPU(), wl.clients(), t.replicas, t.coordinator, t.workers)

	d, setups, cs, err := deploy(cfg, wl)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	p, err := runPass(wl, d, cs)
	if err != nil {
		d.stop()
		return nil, err
	}
	fmt.Printf("answer checks %.2fs\n", time.Since(t1).Seconds()-p.wall.Seconds())
	rss, err := d.peakRSSBytes()
	d.stop()
	if err != nil {
		return nil, err
	}
	res := &result{attempted: len(p.recs), correct: true}
	res.e2e = endToEnd(p, setups, rss, res)
	fmt.Printf("connections opened %d (clients %d)\n", p.conns, wl.clients())
	if p.conns != int64(wl.clients()) {
		res.correct = false
		fmt.Printf("FAIL: %d connections opened for %d clients\n", p.conns, wl.clients())
	}
	printMetrics("end-to-end", res.e2e)

	if cfg.trace {
		layers, err := tracedRun(cfg, wl, p)
		if err != nil {
			return nil, err
		}
		res.layers = layers
		printMetrics("per-layer", res.layers)
	}
	return res, nil
}

// endToEnd computes the user-visible metrics of an untraced pass and
// tallies its failures into res.
func endToEnd(p *pass, setups []time.Duration, rss int64, res *result) map[string]metric {
	lats := make([]time.Duration, len(p.recs))
	var props int64
	verified := 0
	for i, r := range p.recs {
		lats[i] = r.lat
		props += r.props
		if r.ok {
			verified++
			continue
		}
		res.failed++
		if res.failed <= 5 {
			fmt.Printf("FAIL op %s: %s\n", r.reqID, r.why)
		}
		// A wrong answer fails the run; refusals and errors count against
		// success_ratio only.
		if strings.HasPrefix(r.why, wrongAnswer) {
			res.correct = false
		}
	}
	n := float64(len(p.recs))
	ls := summarize(lats)
	fmt.Printf("latency: p50 %.3f ms, tail p%g %.3f ms (n=%d, %d samples beyond)\n",
		ms(ls.p50), ls.tailPct, ms(ls.tail), ls.n, ls.beyond)
	fmt.Printf("set-up: %d cold starts %v\n", len(setups), setups)
	return map[string]metric{
		"setup_s":              {medianDur(setups).Seconds(), "s"},
		"throughput_rps":       {n / p.wall.Seconds(), "ops/s"},
		"latency_p50_ms":       {ms(ls.p50), "ms"},
		"latency_tail_ms":      {ms(ls.tail), "ms"},
		"success_ratio":        {float64(verified) / n, "ratio"},
		"search_props_per_op":  {float64(props) / n, "count"},
		"server_cpu_ms_per_op": {float64(p.cpuTicks) * 1000 / clockTicksPerSecond / n, "ms"},
		"peak_rss_mb":          {float64(rss) / 1e6, "MB"},
	}
}

// wrongAnswer prefixes the failure reason of an answer that is present
// but incorrect, as opposed to a refusal or transport error.
const wrongAnswer = "wrong answer: "

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digester hashes a request list item by item.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(parts ...[]byte) {
	var n [8]byte
	for _, p := range parts {
		l := len(p)
		for i := range n {
			n[i] = byte(l >> (8 * i))
		}
		d.h.Write(n[:])
		d.h.Write(p)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// selfTest checks workload identity: for every workload, one seed gives an
// identical digest and identical search_props_per_op across two runs, and
// another seed gives a different digest.
func selfTest(cfg config) error {
	const seconds = 2
	for _, name := range workloadNames {
		mk, _ := workloadByName(name)
		digests := map[int64]string{}
		for _, seed := range []int64{cfg.seed, cfg.seed, cfg.seed + 1} {
			wl, err := mk(seed, seconds)
			if err != nil {
				return err
			}
			dg, _ := wl.digest()
			if prev, ok := digests[seed]; ok && prev != dg {
				return fmt.Errorf("%s seed %d: digest %s then %s", name, seed, prev, dg)
			}
			digests[seed] = dg
		}
		if digests[cfg.seed] == digests[cfg.seed+1] {
			return fmt.Errorf("%s: seeds %d and %d share digest %s", name, cfg.seed, cfg.seed+1, digests[cfg.seed])
		}
		var props []float64
		for run := 0; run < 2; run++ {
			c := cfg
			c.workload, c.seconds, c.trace = name, seconds, false
			res, err := runWorkload(c)
			if err != nil {
				return err
			}
			if !res.correct || res.failed > 0 {
				return fmt.Errorf("%s: run %d not correct (%d failed)", name, run+1, res.failed)
			}
			props = append(props, res.e2e["search_props_per_op"].Value)
		}
		if props[0] != props[1] {
			return fmt.Errorf("%s seed %d: search_props_per_op %v then %v", name, cfg.seed, props[0], props[1])
		}
		fmt.Printf("selftest %s: digest %s repeats, seed %d gives %s, search_props_per_op %.1f repeats\n",
			name, digests[cfg.seed], cfg.seed+1, digests[cfg.seed+1], props[0])
	}
	return nil
}

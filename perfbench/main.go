// Command perfbench is the repository's serving benchmark: a single-process
// closed-loop load generator for the real neuroselect-serve binary, plus a
// traced in-process replay that times each layer a request crosses.
//
//	perfbench -serve BIN -out DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench -serve BIN -out DIR --selftest
//
// run.sh builds both binaries from the checkout and supplies -serve and
// -out. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md describes the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"neuroselect"
)

func main() {
	os.Exit(run())
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	outDir   string
	model    string // trained selector file, written before any timing
}

func run() int {
	var cfg config
	var trace int
	selftest := flag.Bool("selftest", false, "check workload identity: digests and search_props_per_op repeat for one seed and differ across seeds")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the servers receive only the inputs generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 25, "nominal length of the timed phase; sizes the request list")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and the per-layer replay and reports per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve", "", "neuroselect-serve binary")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the trained model and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.serveBin == "" || cfg.outDir == "" {
		return fail(errors.New("-serve and -out are required (run through run.sh)"))
	}
	if cfg.seconds < 1 {
		return fail(fmt.Errorf("--seconds %d: want at least 1", cfg.seconds))
	}
	if trace != 0 && trace != 1 {
		return fail(fmt.Errorf("--trace %d: want 0 or 1", trace))
	}
	if _, ok := workloadByName(cfg.workload); !ok && !*selftest {
		return fail(fmt.Errorf("unknown --workload %q: want one of %v", cfg.workload, workloadNames))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	model, err := trainModel(cfg.outDir)
	if err != nil {
		return fail(err)
	}
	cfg.model = model

	if *selftest {
		if err := selfTest(cfg); err != nil {
			return fail(err)
		}
		fmt.Println("selftest ok")
		return 0
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res.summary(cfg.trace))
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// trainModel trains the selector on the quick preset and writes it where
// every server of the run loads it. Training is deterministic, so each run
// serves the same model; it is input preparation and is never timed.
func trainModel(dir string) (string, error) {
	m, err := neuroselect.TrainSelector(neuroselect.TrainerConfig{})
	if err != nil {
		return "", fmt.Errorf("train selector: %w", err)
	}
	path := filepath.Join(dir, "model.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := neuroselect.SaveModel(f, m); err != nil {
		f.Close()
		return "", fmt.Errorf("save selector: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is everything one run measured.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]metric
	layers    map[string]metric
}

func (r *result) summary(trace bool) summary {
	m := r.e2e
	if trace {
		m = r.layers
	}
	return summary{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

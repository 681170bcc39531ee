// Command musbench is the end-to-end and per-layer benchmark of mus-serve.
// It starts the real server binary, drives one seeded workload over HTTP
// from this single process on at most two connections, checks every
// answer after the timed window against an independent oracle, and prints
// the metrics: end-to-end ones by default, per-layer ones with -trace 1.
// The last line of its standard output is one JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash musbench/run.sh --workload warm-hits --seed 3 --seconds 25 --trace 0
//
// NOTES.md says why each workload exists and what each metric should
// move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "musbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	bin, workdir string
	seed         int64
	seconds      time.Duration
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, bool) (*result, error){
	"cold-ladder": coldLadder,
	"warm-hits":   warmHits,
}

func run(args []string) error {
	fs := flag.NewFlagSet("musbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "cold-ladder or warm-hits")
		seed     = fs.Int64("seed", 1, "seed of the generated requests")
		seconds  = fs.Int("seconds", 25, "length of the timed window")
		traced   = fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		bin      = fs.String("server", "", "mus-serve binary")
		workdir  = fs.String("workdir", "", "directory for the data directories and scratch files of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *workload)
	case *bin == "" || *workdir == "":
		return errors.New("-server and -workdir are required")
	case *seconds < 1:
		return errors.New("-seconds must be at least 1")
	}
	cfg := config{bin: *bin, workdir: *workdir, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	res, err := runner(cfg, *traced == 1)
	if err != nil {
		return err
	}
	if *traced == 1 {
		layers, err := layerProbes(cfg.seed, cfg.workdir)
		if err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		for name, v := range layers {
			res.set(name, v, 0)
		}
	}
	want := endToEnd
	if *traced == 1 {
		want = perLayer
	}
	rep := report{
		Correct:   res.correct == res.answered && res.answered > 0,
		Attempted: res.attempted,
		Failed:    res.attempted - res.answered,
		Metrics:   map[string]metric{},
	}
	var lines []string
	for _, m := range want {
		v, ok := res.values[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", *workload, m.name)
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		lines = append(lines, fmt.Sprintf("%-32s %14.6g %-10s n=%d", m.name, v, m.unit, res.samples[m.name]))
	}
	sort.Strings(lines)
	fmt.Printf("# %s seed=%d seconds=%d trace=%d: %d attempted, %d failed, %d of %d answers correct\n",
		*workload, cfg.seed, *seconds, *traced, rep.Attempted, rep.Failed, res.correct, res.answered)
	for _, f := range res.failures {
		fmt.Printf("# check failed: %s\n", f)
	}
	fmt.Println(strings.Join(lines, "\n"))
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_p50_ms", "ms"},
	{"solve_tail_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"sweep_tail_ms", "ms"},
	{"first_point_p50_ms", "ms"},
	{"job_p50_s", "s"},
	{"points_per_s", "1/s"},
	{"max_rate_rps", "1/s"},
	{"slo_ok_ratio", "ratio"},
	{"server_cpu_ms_per_req", "ms"},
	{"heap_live_mb", "MB"},
	{"success_ratio", "ratio"},
	{"correct_ratio", "ratio"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"qbd.spectral_ms.s28", "ms"},
	{"qbd.spectral_ms.s45", "ms"},
	{"qbd.spectral_ms.s66", "ms"},
	{"qbd.spectral_ms.s91", "ms"},
	{"qbd.spectral_ms.s120", "ms"},
	{"qbd.spectral_ms.s153", "ms"},
	{"linalg.eigen_ms.s66", "ms"},
	{"linalg.eigen_ms.s153", "ms"},
	{"linalg.nullvec_ms.s66", "ms"},
	{"linalg.nullvec_ms.s153", "ms"},
	{"qbd.sweep_build_ms.s66", "ms"},
	{"qbd.sweep_build_ms.s120", "ms"},
	{"qbd.sweep_point_ms.s66", "ms"},
	{"qbd.sweep_point_ms.s120", "ms"},
	{"qbd.sweep_point_allocs.s66", "count"},
	{"qbd.mg_ms.s66", "ms"},
	{"qbd.residual_max", "1"},
	{"markov.env_ms.s153", "ms"},
	{"core.fingerprint_ns", "ns"},
	{"core.fingerprint_allocs", "count"},
	{"core.env_fingerprint_ns", "ns"},
	{"core.env_fingerprint_allocs", "count"},
	{"service.hit_ns", "ns"},
	{"service.hit_allocs", "count"},
	{"service.sweep_hit_us", "us"},
	{"api.decode_us.solve", "us"},
	{"api.decode_us.sweep", "us"},
	{"api.encode_us.solve", "us"},
	{"api.encode_us.sweep", "us"},
	{"http.self_us.solve", "us"},
	{"http.self_us.sweep", "us"},
	{"server.gc_per_1k_req", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.solves_per_point", "ratio"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_s", "s"},
	{"admission.shed_ratio", "ratio"},
	{"store.append_us", "us"},
	{"store.appends_per_job", "count"},
	{"trace.overhead_pct", "%"},
	{"loadgen.lag_tail_ms", "ms"},
}

// Command perfbench is the repository benchmark. Each workload loads one
// layer of the QAOA compilation stack heavily and the others lightly:
//
//   - compile-sweep: the paper's Fig. 7-10 graph families through every
//     compile preset, no simulation (compile, router, device);
//   - noisy-loop: the Fig. 11(b) hybrid flow, Nelder-Mead over noisy
//     evaluations then one ARG measurement (sim, loop, optimize, exp);
//   - serve-mix: an in-process qaoad driven over loopback HTTP by nproc
//     callers with cache hits, skeleton binds, fresh compiles and
//     calibration reloads (serve).
//
// A run prints a table of every metric with its unit and sample count,
// then one JSON line: the end-to-end metrics with -trace 0, the per-layer
// metrics of a separate traced pass with -trace 1. Correctness checks run
// outside the timed regions; any failure exits non-zero. README.md
// describes the workloads, the metrics and how time is measured.
//
//	bash perfbench/run.sh --workload compile-sweep --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selfcheck
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obsv"
)

// metric is one reported number. n is the number of samples behind a
// timed statistic; exact marks a value that repeats bit for bit under a
// seed.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	exact bool
}

// report is what one pass of a workload produces.
type report struct {
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
	failures  map[string]int // failed operations by kind
	notes     []string       // extra lines for the human-readable output
	opP50     float64        // the workload's op_p50_ms, for the tracing-overhead ratio
}

// runCtx is what a workload pass receives.
type runCtx struct {
	seed   int64
	budget time.Duration   // how long the timed phase measures
	tiny   bool            // self-check size: a handful of inputs
	tr     *tracer         // nil when untraced
	col    *obsv.Collector // nil when untraced
}

type workload struct {
	name string
	run  func(ctx context.Context, rc *runCtx) (*report, error)
}

// spansDir receives the traced run's spans files, inside the checkout's
// build directory.
var spansDir = filepath.Join(".bench_build", "perfbench-out")

var workloads = []workload{
	{"compile-sweep", runCompileSweep},
	{"noisy-loop", runNoisyLoop},
	{"serve-mix", runServeMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// errCheck marks a failed correctness check: the run reports
// "correct": false and exits non-zero.
var errCheck = errors.New("correctness check failed")

func checkFailed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: compile-sweep | noisy-loop | serve-mix")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 10, "how long the timed phase measures")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		selfcheck = flag.Bool("selfcheck", false, "run every workload once at tiny size and check metric names and units against BENCHMARK.json")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *selfcheck {
		return selfCheck(spec)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	metrics, rep, err := measure(context.Background(), w, *seed, budget, *traced == 1, false)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := err == nil
	if correct {
		if cerr := spec.check(metrics, *traced == 1); cerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", cerr)
			return 1
		}
	} else {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printTable(w.name, *traced == 1, metrics, rep)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, make(map[string]jsonMetric, len(metrics))}
	for _, m := range metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload. Untraced, it returns the end-to-end metrics.
// Traced, it first runs an untraced pass and then a traced one on half the
// budget each, and returns the traced pass's per-layer metrics plus the
// self-time rows and the tracing overhead between the two passes.
func measure(ctx context.Context, w workload, seed int64, budget time.Duration, traced, tiny bool) ([]metric, *report, error) {
	if !traced {
		rep, err := w.run(ctx, &runCtx{seed: seed, budget: budget, tiny: tiny})
		if err != nil {
			return nil, emptyReport(rep), err
		}
		return rep.e2e, rep, nil
	}
	base, err := w.run(ctx, &runCtx{seed: seed, budget: budget / 2, tiny: tiny})
	if err != nil {
		return nil, emptyReport(base), err
	}
	tr := newTracer()
	rc := &runCtx{seed: seed, budget: budget / 2, tiny: tiny, tr: tr, col: obsv.New()}
	rep, err := w.run(ctx, rc)
	if err != nil {
		return nil, emptyReport(rep), err
	}
	rep.attempted += base.attempted
	rep.failed += base.failed
	rows, total := tr.selfTimes()
	metrics := append([]metric(nil), rep.layer...)
	for _, l := range layers {
		metrics = append(metrics, metric{name: "self_ms." + l, unit: "ms", value: ms(rows[l])})
	}
	metrics = append(metrics,
		metric{name: "trace.wall_ms", unit: "ms", value: ms(total)},
		metric{name: "trace.spans", unit: "count", value: float64(tr.len())},
		metric{name: "trace.overhead_ratio", unit: "ratio", value: ratio(rep.opP50, base.opP50)},
	)
	if !tiny {
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, rep, err
		}
		rep.notes = append(rep.notes, "spans (Chrome trace-event JSON, loads in Perfetto): "+path)
	}
	rep.notes = append(rep.notes, selfTimeTable(rows, total)...)
	return metrics, rep, nil
}

func emptyReport(r *report) *report {
	if r == nil {
		return &report{attempted: 1, failed: 1}
	}
	return r
}

func printTable(name string, traced bool, metrics []metric, rep *report) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Printf("workload %s: %s metrics\n", name, kind)
	sorted := append([]metric(nil), metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		n := "-"
		switch {
		case m.exact:
			n = "exact"
		case m.n > 0:
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Printf("  %-32s %16.6g %-12s %s\n", m.name, m.value, m.unit, n)
	}
	fmt.Printf("  operations attempted %d, failed %d\n", rep.attempted, rep.failed)
	kinds := make([]string, 0, len(rep.failures))
	for k := range rep.failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("    failed %-20s %d\n", k, rep.failures[k])
	}
	for _, line := range rep.notes {
		fmt.Println("  " + line)
	}
}

// Command perfbench is correctbench's repeatable performance benchmark.
//
//	perfbench --workload table1|grade|replay --seed N --seconds S --trace 0|1
//
// Each workload drives the program through one closed-loop client in
// this process. A run measures a fixed prefix of the workload's op
// sequence — a pure function of (workload, seed), sized from --seconds
// but never cut by the clock — so every run of a seed does the same
// simulated work. With --trace 0 the run reports the workload's
// end-to-end metrics. With --trace 1 it walks the layers of all three
// workloads, the named one first, and reports every per-layer metric,
// timed from the benchmark's own spans around calls into each layer
// plus the program's obs phase spans. The last line of standard output
// is the result object; the line before it is a report with the host
// fingerprint, the tail percentile and its sample count, and the
// within-run quartiles of every metric. Build and run it from the
// repository root with perfbench/run.sh; perfbench/spread.py repeats
// runs over seeds and reports each metric's quartiles across them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload run gets: its inputs' seed, the size
// budget, a scratch directory inside the checkout, the worker count
// and, on an untraced run, the host-speed calibrator.
type env struct {
	seed    int64
	seconds int
	traced  bool
	tmp     string
	workers int
	cal     *calibrator
}

// ops sizes a workload: nominal ops per --seconds on an untraced run,
// traced ops per --seconds on a traced one, whose passes are compact
// because a traced run walks the layers of every workload.
func (e env) ops(nominal, traced int) int {
	if e.traced {
		return e.seconds * traced
	}
	return e.seconds * nominal
}

// outcome is what a workload run hands back: its metrics, the per-op
// success tally, within-run samples for the report and any counts the
// run must repeat exactly.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	samples   map[string][]float64 // metric -> within-run samples (chunks or set-ups)
	tail      *tailStat
	counts    map[string]any
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) sample(name string, xs []float64) {
	if o.samples == nil {
		o.samples = map[string][]float64{}
	}
	o.samples[name] = xs
}

func (o *outcome) count(name string, v any) {
	if o.counts == nil {
		o.counts = map[string]any{}
	}
	o.counts[name] = v
}

// checkf records one verified op: a false ok counts it as failed and
// says why on standard error. Mismatches never abort a run.
func (o *outcome) checkf(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

type workload struct {
	measure func(context.Context, env) (*outcome, error) // --trace 0
	traced  func(context.Context, env) (*outcome, error) // --trace 1
}

var workloads = map[string]workload{
	"table1": {measure: measureTable1, traced: tracedTable1},
	"grade":  {measure: measureGrade, traced: tracedGrade},
	"replay": {measure: measureReplay, traced: tracedReplay},
}

// workloadOrder is the order a traced run walks the workloads in,
// after the one it was asked for.
var workloadOrder = []string{"table1", "grade", "replay"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: table1, grade or replay")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "size budget: the op prefix is sized to take about this long on a 2-vCPU host")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(root, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := env{seed: *seed, seconds: *seconds, traced: *trace == 1, tmp: tmp, workers: runtime.NumCPU()}
	if !e.traced {
		if e.cal, err = newCalibrator(); err != nil {
			return err
		}
		defer e.cal.close()
	}
	var out *outcome
	if e.traced {
		out, err = traceAll(context.Background(), e, *name)
	} else {
		out, err = w.measure(context.Background(), e)
	}
	if err != nil {
		return err
	}
	if out.attempted == 0 {
		return fmt.Errorf("no op was attempted")
	}
	if err := printReport(*name, e, out); err != nil {
		return err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceAll runs the traced pass of every workload, the named one
// first, so each traced run reports every per-layer metric; a metric
// is named after its workload, as in "table1.validator.rs_us_per_row".
func traceAll(ctx context.Context, e env, first string) (*outcome, error) {
	out := &outcome{}
	order := []string{first}
	for _, n := range workloadOrder {
		if n != first {
			order = append(order, n)
		}
	}
	for _, n := range order {
		o, err := workloads[n].traced(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", n, err)
		}
		for k, m := range o.metrics {
			out.set(n+"."+k, m.Unit, m.Value)
		}
		out.attempted += o.attempted
		out.failed += o.failed
		out.count(n, o.counts)
	}
	return out, nil
}

// printReport writes the line before the result: host fingerprint,
// tail rule details, the quartiles of each metric over the run's
// chunks (or set-ups), and the counts that must repeat exactly from
// run to run. Quartiles across runs, against the bounds in
// BENCHMARK.json, come from perfbench/spread.py.
func printReport(name string, e env, out *outcome) error {
	type quart struct {
		Q1, Median, Q3 float64
		N              int
	}
	qs := map[string]quart{}
	for m, xs := range out.samples {
		q1, q2, q3 := quartiles(xs)
		qs[m] = quart{q1, q2, q3, len(xs)}
	}
	rep := map[string]any{
		"report":          "perfbench",
		"workload":        name,
		"seed":            e.seed,
		"seconds":         e.seconds,
		"traced":          e.traced,
		"host":            fingerprint(),
		"chunk_quartiles": qs,
	}
	if out.tail != nil {
		rep["tail"] = out.tail
	}
	if out.counts != nil {
		rep["counts"] = out.counts
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fingerprint identifies the host a result was measured on.
func fingerprint() map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

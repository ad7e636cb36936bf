package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"correctbench"
	"correctbench/internal/autobench"
	"correctbench/internal/autoeval"
	"correctbench/internal/core"
	"correctbench/internal/corrector"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/obs"
	"correctbench/internal/rng"
	"correctbench/internal/testbench"
	"correctbench/internal/validator"
)

// table1: the paper's experiment, cold. One op is one Client.Submit of
// one problem's Table-I row (CorrectBench, AutoBench, Baseline; reps
// 1) against a fresh disk store, so every cell misses and writes.

// table1ExpSeed is the experiment seed of every table1 job. It is fixed,
// not taken from the workload seed: a cell's cost is heavy-tailed (a
// CorrectBench cell that spends its whole correction and reboot budget
// runs 44 validations), so with a per-seed experiment seed the total
// work of a pass moved by over 15% from seed to seed. The workload seed
// orders the problems; every full pass does the same simulated work.
const table1ExpSeed = 42

// table1Nominal sizes the prefix: problems per --seconds. At --seconds
// 10 and above the prefix is the whole dataset, which caps it. A traced
// run takes table1Traced problems per --seconds.
const (
	table1Nominal = 16
	table1Traced  = 2
)

// table1Setups is how many times a run sets table1 up (fresh store,
// fresh client, fixture warm-up); the last set-up is measured.
const table1Setups = 3

// table1Ops is the workload's op sequence: every problem of the
// dataset, in an order shuffled by the seed. A run measures a prefix.
func table1Ops(seed int64) []string {
	names := dataset.Names()
	r := rng.New(seed).Child("perfbench", "table1").Rand()
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

func table1Prefix(e env) []string {
	n := min(e.ops(table1Nominal, table1Traced), len(dataset.Names()))
	return table1Ops(e.seed)[:n]
}

// goldenTestbenches builds one syntactically valid testbench per
// problem for warming the evaluator fixtures through Client.Grade.
func goldenTestbenches(names []string) ([]*correctbench.Testbench, error) {
	out := make([]*correctbench.Testbench, len(names))
	for i, n := range names {
		tb, err := testbench.Golden(dataset.ByName(n), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			return nil, fmt.Errorf("golden testbench for %s: %w", n, err)
		}
		out[i] = tb
	}
	return out, nil
}

// table1Client is a set-up table1 client: a fresh disk store, the
// client over it, and the evaluator fixtures of the prefix warm.
type table1Client struct {
	c      *correctbench.Client
	store  *timedStore // set when wrapped for tracing
	setupS float64
}

// setupTable1 opens a fresh disk store at dir, builds a client over it
// and warms the evaluator fixtures for the prefix through Client.Grade.
func setupTable1(ctx context.Context, dir string, goldens []*correctbench.Testbench, wrapped bool) (*table1Client, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := correctbench.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	tc := &table1Client{}
	if wrapped {
		tc.store = &timedStore{Store: st}
		st = tc.store
	}
	tc.c = correctbench.NewClient(correctbench.WithStore(st))
	evalSeed := harness.EvaluatorSeed(table1ExpSeed)
	for _, tb := range goldens {
		if _, err := tc.c.Grade(ctx, tb, evalSeed); err != nil {
			_ = tc.c.Close(context.Background())
			return nil, fmt.Errorf("fixture warm-up: %w", err)
		}
	}
	tc.setupS = time.Since(t0).Seconds()
	return tc, nil
}

// setupTable1Times sets table1 up n times, each on a fresh store, and
// keeps the last client; it returns every set-up time, scaled by the
// run's calibrator, and every raw one.
func setupTable1Times(ctx context.Context, e env, n int, goldens []*correctbench.Testbench, wrapped bool) (*table1Client, []float64, []float64, error) {
	var setups, rawSetups []float64
	var tc *table1Client
	for i := 0; i < n; i++ {
		if tc != nil {
			_ = tc.c.Close(context.Background())
		}
		secs, raw, err := e.cal.setup(func() (float64, error) {
			var err error
			if tc, err = setupTable1(ctx, filepath.Join(e.tmp, fmt.Sprintf("store-%t-%d", wrapped, i)), goldens, wrapped); err != nil {
				return 0, err
			}
			return tc.setupS, nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
		setups, rawSetups = append(setups, secs), append(rawSetups, raw)
	}
	return tc, setups, rawSetups, nil
}

// table1Pass is one pass over the prefix.
type table1Pass struct {
	latMS    []float64
	allocB   []float64
	gcFrac   float64
	outcomes map[string]correctbench.TaskOutcome // "method/problem" -> outcome
	trace    []correctbench.CellTrace
}

// runTable1Pass submits one job per problem, in prefix order, and
// checks each: three cells, all simulated (cold), no error.
func runTable1Pass(ctx context.Context, e env, tc *table1Client, prefix []string, traced bool, out *outcome) (*table1Pass, error) {
	r := &table1Pass{outcomes: map[string]correctbench.TaskOutcome{}}
	first := readRuntime()
	for _, p := range prefix {
		e.cal.slice()
		spec := correctbench.ExperimentSpec{
			Seed: table1ExpSeed, Reps: 1, Problems: []string{p}, Workers: e.workers, NoTrace: !traced,
		}
		before := readRuntime()
		opStart := time.Now()
		job, err := tc.c.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		var cells []correctbench.CellFinished
		for ev := range job.Events() {
			if cf, ok := ev.(correctbench.CellFinished); ok {
				cells = append(cells, cf)
			}
		}
		_, werr := job.Wait(ctx)
		r.latMS = append(r.latMS, float64(time.Since(opStart).Nanoseconds())/1e6)
		r.allocB = append(r.allocB, float64(readRuntime().allocBytes-before.allocBytes))

		cold := true
		for _, cf := range cells {
			r.outcomes[cf.Method+"/"+cf.Problem] = cf.Outcome
			cold = cold && !cf.Cached
		}
		out.checkf(werr == nil && len(cells) == 3 && cold, "table1 %s: err=%v cells=%d cold=%t", p, werr, len(cells), cold)
		if traced {
			r.trace = append(r.trace, job.Trace()...)
		}
	}
	r.gcFrac = gcFrac(first, readRuntime())
	e.cal.slice()
	return r, nil
}

// table1SpotStride picks which CorrectBench cells an untraced run
// replays: every table1SpotStride-th problem of the prefix. Generator
// cells are cheap and are all replayed.
const table1SpotStride = 8

func measureTable1(ctx context.Context, e env) (*outcome, error) {
	prefix := table1Prefix(e)
	goldens, err := goldenTestbenches(prefix)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	tc, setups, rawSetups, err := setupTable1Times(ctx, e, table1Setups, goldens, false)
	if err != nil {
		return nil, err
	}
	defer tc.c.Close(context.Background())
	from := e.cal.mark()
	pass, err := runTable1Pass(ctx, e, tc, prefix, false, out)
	if err != nil {
		return nil, err
	}
	summarizeE2E(out, e.cal.pass(from, pass.latMS), len(pass.latMS), pass.allocB, setups, rawSetups)

	// Untimed: check the job outcomes against the layer-by-layer
	// replay — every generator cell and a stride of CorrectBench cells.
	grade := clientGrader(tc.c, table1ExpSeed)
	replayed := 0
	for i, n := range prefix {
		for _, m := range harness.AllMethods() {
			if m == harness.MethodCorrectBench && i%table1SpotStride != 0 {
				continue
			}
			rp, err := replayCell(ctx, table1ExpSeed, m, dataset.ByName(n), grade)
			if err != nil {
				return nil, err
			}
			want, ok := pass.outcomes[string(m)+"/"+n]
			out.checkf(ok && rp.outcome == want, "table1 replay %s/%s: replay %+v, job %+v", m, n, rp.outcome, want)
			replayed++
		}
	}
	out.count("ops", len(prefix))
	out.count("cells_replayed", replayed)
	return out, nil
}

// ---- traced run ----

// cellReplay is what replaying one cell outside the harness yields.
type cellReplay struct {
	outcome     correctbench.TaskOutcome
	samples     []obs.PhaseSample
	validations int
	rows, kept  int
}

// Benchmark-side span names for the table1 layer walk.
const (
	spanCell     = "cell"
	spanRTLGroup = "validator.rtl_group"
	spanGenerate = "autobench.generate"
	spanRSMatrix = "validator.rs_matrix"
	spanJudge    = "validator.judge"
	spanCorrect  = "corrector.correct"
	spanGrade    = "autoeval.grade"
)

// gradeFunc grades a testbench with the experiment's AutoEval fixtures.
type gradeFunc func(context.Context, *testbench.Testbench) (autoeval.Grade, error)

// replayCell re-runs one experiment cell layer by layer, in Algorithm
// 1's order, on the cell's own random stream: the same draws as the
// harness makes, so the outcome must equal the job's. Each layer call
// is wrapped in a benchmark span on an obs collector carried in ctx,
// under which the program's own sim_* spans nest.
func replayCell(ctx context.Context, seed int64, method harness.Method, p *dataset.Problem, grade gradeFunc) (*cellReplay, error) {
	col := obs.NewCollector(time.Now())
	ctx = obs.WithCollector(ctx, col)
	span := func(name string) func() { return col.Start(name) }
	endCell := span(spanCell)

	rep := &cellReplay{outcome: correctbench.TaskOutcome{Problem: p.Name, Kind: p.Kind}}
	r := harness.CellStream(seed, method, 0, p.Name).Rand()
	prof := llm.GPT4o()
	var acct llm.Accountant
	var tb *testbench.Testbench
	var err error

	switch method {
	case harness.MethodCorrectBench:
		opt := core.DefaultOptions(prof)
		gen := &autobench.AutoBench{Profile: prof}
		val := &validator.Validator{Criterion: opt.Criterion}
		corr := &corrector.Corrector{Profile: prof}
		trait := prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r)

		end := span(spanRTLGroup)
		group, gerr := validator.GenerateRTLGroup(p, prof, opt.NR, r, &acct)
		end()
		if gerr != nil {
			return nil, gerr
		}
		end = span(spanGenerate)
		tb, err = gen.Generate(p, trait, r, &acct)
		end()
		if err != nil {
			return nil, err
		}
		o := &rep.outcome
		sinceReboot, ic, ir := 0, 0, 0
	loop:
		for {
			end = span(spanRSMatrix)
			m, ok, berr := val.BuildMatrixContext(ctx, tb, group)
			end()
			if berr != nil {
				return nil, berr
			}
			rep.validations++
			report := &validator.Report{Correct: false, SimulationBroken: true}
			if ok {
				rep.rows += m.NR() + m.Discarded
				rep.kept += m.NR()
				end = span(spanJudge)
				report = val.Judge(m)
				end()
			}
			if !report.Correct {
				o.ValidatorIntervened = true
			}
			switch {
			case !report.Correct && ic < opt.MaxCorrections:
				ic++
				o.Corrections++
				end = span(spanCorrect)
				fixed, co := corr.Correct(tb, report, r, &acct)
				end()
				if co.Repaired > 0 {
					sinceReboot++
				}
				tb = fixed
			case !report.Correct && ir < opt.MaxReboots:
				ir++
				o.Reboots++
				ic, sinceReboot = 0, 0
				end = span(spanGenerate)
				tb, err = gen.Generate(p, trait, r, &acct)
				end()
				if err != nil {
					return nil, err
				}
			default:
				o.FinalValidated = report.Correct
				o.CorrectorShaped = report.Correct && sinceReboot > 0
				break loop
			}
		}
	default:
		gen, gerr := autobench.ForMethod(string(method), prof)
		if gerr != nil {
			return nil, gerr
		}
		trait := prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r)
		end := span(spanGenerate)
		tb, err = gen.Generate(p, trait, r, &acct)
		end()
		if err != nil {
			return nil, err
		}
	}
	rep.outcome.TokensIn, rep.outcome.TokensOut = acct.In, acct.Out

	end := span(spanGrade)
	g, err := grade(ctx, tb)
	end()
	if err != nil {
		return nil, err
	}
	rep.outcome.Grade = g
	endCell()
	rep.samples = col.Samples()
	return rep, nil
}

// clientGrader grades through Client.Grade against the evaluator the
// client's jobs use for the experiment seed, so its fixtures are warm.
func clientGrader(c *correctbench.Client, seed int64) gradeFunc {
	return func(ctx context.Context, tb *testbench.Testbench) (autoeval.Grade, error) {
		return c.Grade(ctx, tb, harness.EvaluatorSeed(seed))
	}
}

func tracedTable1(ctx context.Context, e env) (*outcome, error) {
	prefix := table1Prefix(e)
	goldens, err := goldenTestbenches(prefix)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	ops := float64(len(prefix))

	// The fixture build of the prefix alone, on a fresh evaluator.
	runtime.GC()
	ev := autoeval.NewEvaluator(harness.EvaluatorSeed(table1ExpSeed))
	t0 := time.Now()
	for _, n := range prefix {
		if _, err := ev.GoldenTestbench(dataset.ByName(n)); err != nil {
			return nil, err
		}
	}
	fixtureS := time.Since(t0).Seconds()

	plainC, _, _, err := setupTable1Times(ctx, e, 1, goldens, false)
	if err != nil {
		return nil, err
	}
	plain, err := runTable1Pass(ctx, e, plainC, prefix, false, out)
	_ = plainC.c.Close(context.Background())
	if err != nil {
		return nil, err
	}
	tc, _, _, err := setupTable1Times(ctx, e, 1, goldens, true)
	if err != nil {
		return nil, err
	}
	defer tc.c.Close(context.Background())
	tr, err := runTable1Pass(ctx, e, tc, prefix, true, out)
	if err != nil {
		return nil, err
	}

	// Replay every cell layer by layer and check it against the job.
	grade := clientGrader(tc.c, table1ExpSeed)
	lt := newLayerTimes()
	var validations, rows, kept, reboots int
	for _, n := range prefix {
		for _, m := range harness.AllMethods() {
			rp, err := replayCell(ctx, table1ExpSeed, m, dataset.ByName(n), grade)
			if err != nil {
				return nil, err
			}
			want, ok := tr.outcomes[string(m)+"/"+n]
			out.checkf(ok && rp.outcome == want, "table1 replay %s/%s: replay %+v, job %+v", m, n, rp.outcome, want)
			lt.add(rp.samples)
			validations += rp.validations
			rows += rp.rows
			kept += rp.kept
			reboots += rp.outcome.Reboots
		}
	}

	perOp := func(phase string) float64 { return lt.ms(phase) / ops }
	out.set("validator.rs_matrix_ms_per_op", "ms", perOp(spanRSMatrix))
	out.set("validator.rs_us_per_row", "us", float64(lt.totalUS[spanRSMatrix])/float64(max(rows, 1)))
	out.set("validator.rs_self_ms_per_op", "ms", lt.selfMS(spanRSMatrix)/ops)
	out.set("sim.elaborate_ms_per_op", "ms", perOp(obs.PhaseElaborate))
	out.set("sim.compile_ms_per_op", "ms", perOp(obs.PhaseCompile))
	out.set("sim.run_ms_per_op", "ms", perOp(obs.PhaseRun))
	out.set("corrector.correct_ms_per_op", "ms", perOp(spanCorrect))
	out.set("autobench.generate_ms_per_op", "ms", perOp(spanGenerate))
	out.set("validator.rtl_group_ms_per_op", "ms", perOp(spanRTLGroup))
	out.set("autoeval.grade_ms_per_op", "ms", perOp(spanGrade))
	out.set("harness.queue_wait_ms_per_op", "ms", float64(spanTotals(tr.trace)[obs.PhaseQueueWait])/1000/ops)
	out.set("store.put_us", "us", float64(tc.store.putNS.Load())/1000/float64(max(tc.store.puts.Load(), 1)))
	out.set("runtime.gc_cpu_frac", "fraction", tr.gcFrac)
	out.set("core.validations_per_op", "count", float64(validations)/ops)
	out.set("core.reboots_per_op", "count", float64(reboots)/ops)
	out.set("validator.rs_rows_per_op", "count", float64(rows)/ops)
	out.set("validator.rows_kept_frac", "fraction", float64(kept)/float64(max(rows, 1)))
	out.set("autoeval.fixture_s", "s", fixtureS)
	// Attributed: the part of each cell's span its layer spans cover.
	attributed := 1 - lt.selfMS(spanCell)/lt.ms(spanCell)
	out.set("trace.attributed_frac", "fraction", attributed)
	out.set("trace.residual_frac", "fraction", 1-attributed)
	untraced, traced := ops/(sum(plain.latMS)/1000), ops/(sum(tr.latMS)/1000)
	out.set("obs.trace_overhead_pct", "%", 100*(untraced-traced)/untraced)

	out.count("validations", validations)
	out.count("rs_rows", rows)
	out.count("reboots", reboots)
	out.count("store_puts", tc.store.puts.Load())
	out.count("untraced_ops_per_s", untraced)
	out.count("traced_ops_per_s", traced)
	return out, nil
}

package main

import (
	"math"
	"testing"

	"correctbench/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(3), 1, 2, 3},
		{seq(4), 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	tl, ok := tail(seq(100))
	if !ok || tl.Value != 90 || !near(tl.Pct, 90) || tl.Beyond != 10 || tl.N != 100 {
		t.Errorf("tail of 1..100 = %+v, %v; want p90 = 90 with 10 beyond", tl, ok)
	}
	tl, ok = tail(seq(2000))
	if !ok || tl.Value != 1990 || !near(tl.Pct, 99.5) {
		t.Errorf("tail of 1..2000 = %+v; want p99.5 = 1990", tl)
	}
	tl, ok = tail(seq(11))
	if !ok || tl.Value != 1 {
		t.Errorf("tail of 1..11 = %+v, %v; want the minimum, 10 beyond", tl, ok)
	}
	if _, ok := tail(seq(10)); ok {
		t.Error("tail of 10 samples must report no percentile: none has 10 samples beyond")
	}
	// With ties, still exactly tailBeyond samples sit above its rank.
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}
	tl, _ = tail(xs)
	if s := sorted(xs); tl.Value != s[len(s)-1-tailBeyond] || tl.Value != 4 {
		t.Errorf("tail = %v, want the 11th largest, 4", tl.Value)
	}
}

func TestChunksCoverEverySample(t *testing.T) {
	xs := seq(21)
	cs := chunks(xs, 4)
	if len(cs) != 4 || len(cs[0]) != 5 || len(cs[3]) != 6 {
		t.Fatalf("chunks sizes: %d chunks, first %d, last %d", len(cs), len(cs[0]), len(cs[3]))
	}
	total := 0
	for _, c := range cs {
		total += len(c)
	}
	if total != len(xs) {
		t.Errorf("chunks hold %d samples, want %d", total, len(xs))
	}
	if cs := chunks(seq(3), 8); len(cs) != 1 || len(cs[0]) != 3 {
		t.Errorf("fewer samples than chunks: %v", cs)
	}
}

func TestCoveredAndSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		covered  int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 30},
		{"overlapping counted once", []interval{{10, 40}, {30, 50}}, 40},
		{"nested counted once", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-20, 10}, {90, 150}}, 20},
		{"outside the parent", []interval{{100, 120}, {-5, 0}}, 0},
		{"touching merge", []interval{{0, 50}, {50, 100}}, 100},
	} {
		if got := coveredUS(parent, tc.children); got != tc.covered {
			t.Errorf("%s: covered %d, want %d", tc.name, got, tc.covered)
		}
		if got := selfUS(parent, tc.children); got != 100-tc.covered {
			t.Errorf("%s: self %d, want %d", tc.name, got, 100-tc.covered)
		}
	}
}

// A span tree as an obs.Collector records it: self time is each span
// minus its direct children, and the root's children give the
// attributed share, whose complement is the residual.
func TestLayerTimesSelfAndResidual(t *testing.T) {
	samples := []obs.PhaseSample{
		{Phase: "cell", Seq: 0, ParentSeq: -1, StartUS: 0, DurUS: 1000},
		{Phase: "validator.rs_matrix", Seq: 1, ParentSeq: 0, StartUS: 100, DurUS: 500},
		{Phase: obs.PhaseElaborate, Seq: 2, ParentSeq: 1, StartUS: 100, DurUS: 50},
		{Phase: obs.PhaseRun, Seq: 3, ParentSeq: 1, StartUS: 200, DurUS: 300},
		{Phase: "autoeval.grade", Seq: 4, ParentSeq: 0, StartUS: 700, DurUS: 200},
		{Phase: obs.PhaseRun, Seq: 5, ParentSeq: 4, StartUS: 750, DurUS: 100},
	}
	lt := newLayerTimes()
	lt.add(samples)
	lt.add(samples)
	if got := lt.selfMS("validator.rs_matrix"); !near(got, 2*0.150) {
		t.Errorf("rs_matrix self = %v ms, want 0.3", got)
	}
	if got := lt.ms(obs.PhaseRun); !near(got, 2*0.400) {
		t.Errorf("sim_run total = %v ms, want 0.8", got)
	}
	attributed := 1 - lt.selfMS("cell")/lt.ms("cell")
	if !near(attributed, 0.7) || !near(1-attributed, 0.3) {
		t.Errorf("attributed %v, residual %v; want 0.7 and 0.3", attributed, 1-attributed)
	}
}

// The end-to-end metrics are medians over chunks: one slow chunk moves
// none of them, and throughput counts each op's collection wait.
func TestSummarizeE2EChunkMedians(t *testing.T) {
	const chunk, k = 20, 3
	var p passTimes
	var alloc []float64
	for i := 0; i < chunk*k; i++ {
		lat := float64(1 + i%chunk) // 1..20 ms in every chunk
		if i/chunk == 1 {
			lat *= 10 // the middle chunk ran on a slow host
		}
		p.latMS = append(p.latMS, lat)
		p.factors = append(p.factors, 1)
		p.gcWaitMS = append(p.gcWaitMS, 0.5)
		alloc = append(alloc, 1e6)
	}
	out := &outcome{}
	summarizeE2E(out, p, chunk, alloc, []float64{3, 1, 2}, []float64{3, 1, 2})
	// A normal chunk: 20 ops in (1+...+20) + 20*0.5 = 220 ms.
	if got, want := out.metrics["ops_per_s"].Value, 20/0.220; math.Abs(got-want) > 1e-9 {
		t.Errorf("ops_per_s %v, want %v", got, want)
	}
	// Chunk tails by the tail rule: the 11th largest of 20 is 10 ms.
	if got := out.metrics["tail_ms"].Value; got != 10 {
		t.Errorf("tail_ms %v, want 10", got)
	}
	if got := out.metrics["alloc_mb_per_op"].Value; got != 1 {
		t.Errorf("alloc_mb_per_op %v, want 1", got)
	}
	if got := out.metrics["setup_s"].Value; got != 2 {
		t.Errorf("setup_s %v, want 2", got)
	}
}

package main

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"correctbench/internal/dataset"
)

func TestTable1OpsDeterministic(t *testing.T) {
	a, b := table1Ops(1), table1Ops(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two table1 op lists")
	}
	if reflect.DeepEqual(a, table1Ops(2)) {
		t.Error("seeds 1 and 2 gave the same table1 op list")
	}
	got := append([]string(nil), a...)
	sort.Strings(got)
	want := dataset.Names()
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Error("the table1 op list is not a permutation of the dataset")
	}
	// Every prefix is the prefix of the full list, whatever the size.
	for _, secs := range []int{1, 3, 9, 10, 20} {
		p := table1Prefix(env{seed: 1, seconds: secs})
		if !reflect.DeepEqual(p, a[:len(p)]) {
			t.Errorf("--seconds %d: prefix is not a prefix of the op list", secs)
		}
	}
	if n := len(table1Prefix(env{seed: 1, seconds: 20})); n != len(dataset.Names()) {
		t.Errorf("--seconds 20 prefix has %d problems, want the whole dataset", n)
	}
}

func TestGradeOpsDeterministicAndStable(t *testing.T) {
	long, err := gradeOps(5, 120)
	if err != nil {
		t.Fatal(err)
	}
	again, err := gradeOps(5, 120)
	if err != nil {
		t.Fatal(err)
	}
	short, err := gradeOps(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gradeOps(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	seen := map[string]bool{}
	for i := range long {
		if !bytes.Equal(long[i].body, again[i].body) {
			t.Fatalf("body %d differs between two lists of the same seed", i)
		}
		if i < len(short) && !bytes.Equal(long[i].body, short[i].body) {
			t.Fatalf("body %d of a 50-body prefix differs from the 120-body list", i)
		}
		if i < len(other) && !bytes.Equal(long[i].body, other[i].body) {
			same = false
		}
		if seen[string(long[i].body)] {
			t.Fatalf("body %d repeats an earlier body", i)
		}
		seen[string(long[i].body)] = true
	}
	if same {
		t.Error("seeds 5 and 6 gave the same grade list")
	}
}

// Every seed grades the same bodies, in its own order.
func TestGradeSeedsShareOneCorpus(t *testing.T) {
	n := 2 * gradePool
	a, err := gradeOps(1, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gradeOps(2, n)
	if err != nil {
		t.Fatal(err)
	}
	var as, bs []string
	sameOrder := true
	for i := range a {
		as, bs = append(as, string(a[i].body)), append(bs, string(b[i].body))
		sameOrder = sameOrder && as[i] == bs[i]
	}
	if sameOrder {
		t.Error("seeds 1 and 2 grade the bodies in the same order")
	}
	sort.Strings(as)
	sort.Strings(bs)
	if !reflect.DeepEqual(as, bs) {
		t.Error("seeds 1 and 2 grade different bodies")
	}
	if got := gradeRunOps(env{seconds: 1}); got%gradePool != 0 || got < gradeNominal {
		t.Errorf("a run grades %d bodies, want whole cycles of %d covering %d", got, gradePool, gradeNominal)
	}
}

// Each cycle of len(pool) bodies grades every pool problem once, and
// cycles alternate the generator, so every seed has the same mix.
func TestGradeMixIsStratified(t *testing.T) {
	pool := gradePoolProblems()
	for _, seed := range []int64{1, 2} {
		for c := 0; c < 4; c++ {
			seenP := map[string]bool{}
			var method string
			for i := c * len(pool); i < (c+1)*len(pool); i++ {
				p, m := gradeCell(seed, i, pool)
				seenP[p.Name] = true
				if method == "" {
					method = m
				} else if m != method {
					t.Fatalf("seed %d cycle %d mixes generators", seed, c)
				}
			}
			if len(seenP) != len(pool) {
				t.Errorf("seed %d cycle %d covers %d of %d pool problems", seed, c, len(seenP), len(pool))
			}
			if want := gradeMethods[c%len(gradeMethods)]; method != want {
				t.Errorf("seed %d cycle %d uses %s, want %s", seed, c, method, want)
			}
		}
	}
	if !reflect.DeepEqual(gradePoolProblems(), pool) {
		t.Error("the grade pool is not fixed")
	}
}

// Rebuilding a body's testbench gives the scenarios and checker the
// body carries, with the service's numbering and defaults.
func TestFromWire(t *testing.T) {
	bodies, err := gradeOps(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		tb := fromWire(b.problem, b.wire)
		if tb.Problem.Name != b.problem || tb.CheckerSource != b.wire.CheckerSource || len(tb.Scenarios) != len(b.wire.Scenarios) {
			t.Fatalf("%s: rebuilt testbench does not match its body", b.problem)
		}
		for i, sc := range tb.Scenarios {
			if sc.Index != i+1 || sc.Name == "" || len(sc.Steps) != len(b.wire.Scenarios[i].Steps) {
				t.Fatalf("%s: scenario %d rebuilt as %+v", b.problem, i, sc)
			}
		}
		if tb.DriverSource == "" || tb.CheckerTop == "" {
			t.Fatalf("%s: no driver or checker top", b.problem)
		}
	}
}

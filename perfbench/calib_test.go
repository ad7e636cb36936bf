package main

import (
	"math"
	"testing"
)

// A slice allocates nothing, so it adds no GC work to the ops around it.
func TestCalibratorSliceAllocatesNothing(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.samples = make([]float64, 0, 100)
	c.waits = make([]float64, 0, 100)
	if n := testing.AllocsPerRun(20, c.slice); n != 0 {
		t.Fatalf("a calibration slice allocates %v times", n)
	}
}

// Each op is scaled by the median slice near it, and owns the wait of
// the slice after it.
func TestPassPairsOpsWithTheirSlices(t *testing.T) {
	c := &calibrator{}
	for i := 0; i < 3; i++ { // slices before the pass
		c.samples = append(c.samples, 99)
		c.waits = append(c.waits, 99)
	}
	from := c.mark()
	n := 4*calWindow + 2
	lat := make([]float64, n)
	for i := 0; i <= n; i++ { // one slice per op plus one after the last
		ms := calRefMS
		if i >= n/2 {
			ms = 2 * calRefMS // the host runs at half speed from here on
		}
		c.samples = append(c.samples, ms)
		c.waits = append(c.waits, float64(i))
		if i < n {
			lat[i] = 1
		}
	}
	p := c.pass(from, lat)
	if len(p.factors) != n || len(p.gcWaitMS) != n {
		t.Fatalf("pass has %d factors and %d waits for %d ops", len(p.factors), len(p.gcWaitMS), n)
	}
	if p.factors[0] != 1 || p.factors[n-1] != 0.5 {
		t.Errorf("factors %v at the ends, want 1 and 0.5", []float64{p.factors[0], p.factors[n-1]})
	}
	for i, w := range p.gcWaitMS {
		if w != float64(i+1) {
			t.Fatalf("op %d owns wait %v, want the next slice's %d", i, w, i+1)
		}
	}
}

func TestSetupScaledByItsBursts(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	from := c.mark()
	scaledS, rawS, err := c.setup(func() (float64, error) { return 2, nil })
	if err != nil || rawS != 2 {
		t.Fatalf("setup returned raw %v, err %v", rawS, err)
	}
	if got := len(c.samples) - from; got != 2*calBurst {
		t.Fatalf("setup timed %d slices, want %d", got, 2*calBurst)
	}
	if want := 2 * calRefMS / median(c.samples[from:]); math.Abs(scaledS-want) > 1e-12 {
		t.Errorf("scaled set-up %v, want %v", scaledS, want)
	}
	var nilCal *calibrator
	if s, r, _ := nilCal.setup(func() (float64, error) { return 3, nil }); s != 3 || r != 3 {
		t.Errorf("a nil calibrator scaled a set-up: %v, %v", s, r)
	}
}

package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples a reported tail percentile must
// leave above it: fewer than this and the "percentile" is one or two
// outliers, not a tail.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns with its default "exclusive"
// method (same clamping, same extrapolation for tiny samples), so the
// report's within-run quartiles read like the ones spread.py computes
// across runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// tailStat is a tail latency: the sample at the highest percentile
// that still has tailBeyond samples above it.
type tailStat struct {
	Value  float64 `json:"value"`
	Pct    float64 `json:"pct"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

// tail applies the tail rule: with n samples sorted ascending, the
// reported value is the one at index n-1-tailBeyond, so exactly
// tailBeyond samples lie beyond it, at percentile 100*(n-tailBeyond)/n.
// ok is false when there are too few samples for any such percentile.
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tailStat{N: n}, false
	}
	return tailStat{
		Value:  sorted(xs)[n-1-tailBeyond],
		Pct:    100 * float64(n-tailBeyond) / float64(n),
		Beyond: tailBeyond,
		N:      n,
	}, true
}

// chunks splits xs into n equal consecutive parts (the last takes the
// remainder).
func chunks(xs []float64, n int) [][]float64 {
	size := len(xs) / n
	if size == 0 {
		return [][]float64{xs}
	}
	var out [][]float64
	for i := 0; i < n; i++ {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		out = append(out, xs[i*size:end])
	}
	return out
}

// summarizeE2E sets the five end-to-end metrics from a timed pass, the
// per-op allocations (bytes) and the scaled and raw set-up times.
// Latencies are scaled to the reference host speed (see calibrator).
// The pass is cut into consecutive chunks of chunkOps ops (the last
// takes the remainder), so that a slow spell of the host in a few
// chunks moves none of the medians:
//   - ops_per_s is the median chunk throughput, each op counted with
//     the collection wait after it;
//   - p50_ms is the median of every op latency;
//   - tail_ms is the median chunk tail, each by the tail rule;
//   - alloc_mb_per_op is over the whole pass;
//   - setup_s is the median scaled set-up.
//
// The report carries the chunk figures and the unscaled ones.
func summarizeE2E(out *outcome, p passTimes, chunkOps int, allocB, setups, rawSetups []float64) {
	latMS := scaled(p.latMS, p.factors)
	busyMS := scaled(p.gcWaitMS, p.factors)
	for i := range busyMS {
		busyMS[i] += latMS[i]
	}
	k := max(1, len(latMS)/chunkOps)
	var rates, p50s, tails []float64
	var chunkTail tailStat
	latChunks := chunks(latMS, k)
	for i, ch := range chunks(busyMS, k) {
		rates = append(rates, float64(len(ch))/(sum(ch)/1000))
		p50s = append(p50s, median(latChunks[i]))
		chunkTail, _ = tail(latChunks[i])
		tails = append(tails, chunkTail.Value)
	}
	chunkTail.Value = median(tails)
	out.tail = &chunkTail
	out.set("ops_per_s", "1/s", median(rates))
	out.set("p50_ms", "ms", median(latMS))
	out.set("tail_ms", "ms", chunkTail.Value)
	out.set("alloc_mb_per_op", "MB", sum(allocB)/float64(len(allocB))/1e6)
	out.set("setup_s", "s", median(setups))
	out.sample("ops_per_s", rates)
	out.sample("p50_ms", p50s)
	out.sample("tail_ms", tails)
	out.sample("setup_s", setups)
	n := float64(len(p.latMS))
	var rawTails []float64
	for _, ch := range chunks(p.latMS, k) {
		t, _ := tail(ch)
		rawTails = append(rawTails, t.Value)
	}
	out.count("unscaled", map[string]float64{
		"ops_per_s":         n / ((sum(p.latMS) + sum(p.gcWaitMS)) / 1000),
		"p50_ms":            median(p.latMS),
		"tail_ms":           median(rawTails),
		"setup_s":           median(rawSetups),
		"host_factor":       median(p.factors),
		"gc_wait_ms_per_op": sum(p.gcWaitMS) / n,
	})
}

package main

import (
	"net/http"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"correctbench"
	"correctbench/internal/obs"
	"correctbench/internal/store"
)

// ---- span arithmetic ----

// interval is a half-open time span in microseconds.
type interval struct{ start, end int64 }

// coveredUS returns how much of parent the union of children covers.
// Children may overlap each other and stick out of the parent; only
// the parts inside the parent count, and overlaps count once.
func coveredUS(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, c := range clipped {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfUS is a span's duration minus the part its children cover.
func selfUS(parent interval, children []interval) int64 {
	return parent.end - parent.start - coveredUS(parent, children)
}

// layerTimes sums phase samples by phase name: total time and self
// time (total minus child spans). Both the program's
// own spans (sim_*, queue_wait, store_lookup) and the benchmark's
// layer spans arrive as obs.PhaseSample, so one walk handles both.
type layerTimes struct {
	totalUS map[string]int64
	selfUS  map[string]int64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{totalUS: map[string]int64{}, selfUS: map[string]int64{}}
}

// add folds one cell's (or one request's) samples in.
func (l *layerTimes) add(samples []obs.PhaseSample) {
	children := map[int][]interval{}
	for _, s := range samples {
		if s.ParentSeq >= 0 {
			children[s.ParentSeq] = append(children[s.ParentSeq], interval{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	for _, s := range samples {
		iv := interval{s.StartUS, s.StartUS + s.DurUS}
		l.totalUS[s.Phase] += s.DurUS
		l.selfUS[s.Phase] += selfUS(iv, children[s.Seq])
	}
}

// ms returns a phase's total in milliseconds.
func (l *layerTimes) ms(phase string) float64 { return float64(l.totalUS[phase]) / 1000 }

// selfMS returns a phase's self time in milliseconds.
func (l *layerTimes) selfMS(phase string) float64 { return float64(l.selfUS[phase]) / 1000 }

// spanTotals sums the durations of assembled trace spans by phase,
// the form Job.Trace returns.
func spanTotals(cells []correctbench.CellTrace) map[string]int64 {
	out := map[string]int64{}
	for _, c := range cells {
		for _, s := range c.Spans {
			out[s.Phase] += s.DurUS
		}
	}
	return out
}

// ---- wrappers ----

// timedStore wraps a result store and times every Get and Put. It
// changes nothing the store returns, so event streams stay identical.
type timedStore struct {
	correctbench.Store
	gets, hits, getNS atomic.Int64
	puts, putNS       atomic.Int64
}

func (s *timedStore) Get(k store.Key) (store.Outcome, bool) {
	t := time.Now()
	o, ok := s.Store.Get(k)
	s.getNS.Add(int64(time.Since(t)))
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return o, ok
}

func (s *timedStore) Put(k store.Key, o store.Outcome) error {
	t := time.Now()
	err := s.Store.Put(k, o)
	s.putNS.Add(int64(time.Since(t)))
	s.puts.Add(1)
	return err
}

// timedHandler wraps the service handler: it times each request from
// entry to return, and separately the time spent in the response
// writer's Write and Flush calls (the NDJSON per-line flushes).
type timedHandler struct {
	h             http.Handler
	handlNS, ioNS atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(&timedWriter{ResponseWriter: w, ioNS: &t.ioNS}, r)
	t.handlNS.Add(int64(time.Since(start)))
}

// timedWriter forwards to the real response writer, keeping it a
// Flusher so the service streams exactly as it would unwrapped.
type timedWriter struct {
	http.ResponseWriter
	ioNS *atomic.Int64
}

func (w *timedWriter) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := w.ResponseWriter.Write(b)
	w.ioNS.Add(int64(time.Since(t)))
	return n, err
}

func (w *timedWriter) Flush() {
	f, ok := w.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	t := time.Now()
	f.Flush()
	w.ioNS.Add(int64(time.Since(t)))
}

// ---- runtime counters ----

// runtimeSample reads the cumulative counters the benchmark reports:
// bytes allocated and GC versus total CPU time.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// gcFrac is the share of CPU time spent in the garbage collector
// between two samples.
func gcFrac(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

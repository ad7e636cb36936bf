package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"correctbench"
	"correctbench/internal/obs"
)

// replay: a resume against a warm store. One op is one streaming POST
// /v1/experiments for a spec that is already fully in a disk store,
// read as NDJSON until job_done. It simulates nothing.

const (
	// replayNominal sizes the op count: ops per --seconds;
	// replayTraced on a traced run. At --seconds 30 the timed pass
	// takes about 22 s on the 2-vCPU host the benchmark was tuned on.
	replayNominal = 45
	replayTraced  = 15
	// replayReps with AutoBench and Baseline over all 156 problems
	// gives replayCells cells per op.
	replayReps  = 5
	replayCells = 156 * 2 * replayReps
	// replayRetained is the client's job-retention cap
	// (maxRetainedJobs): warm-up runs this many ops so the client holds
	// a full history before the clock starts.
	replayRetained = 64
	replaySetups   = 21
	// replayChunk is the chunk the run's medians are taken over (see
	// summarizeE2E); its tail is near the 93rd percentile. With chunks
	// of 225 (six a run) the median chunk tail spread 0.11 over five
	// seeds.
	replayChunk = 150
)

var replayMethods = []string{"AutoBench", "Baseline"}

func replaySpec(e env, noTrace bool) []byte {
	b, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
		"seed": e.seed, "reps": replayReps, "methods": replayMethods,
		"workers": e.workers, "no_trace": noTrace, "stream": true,
	})
	return b
}

// fillStore runs the spec cold into a disk store at dir — input
// preparation, before any clock — and returns its tables.
func fillStore(ctx context.Context, e env, dir string) (map[string]string, error) {
	st, err := correctbench.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	c := correctbench.NewClient(correctbench.WithStore(st))
	defer c.Close(context.Background())
	job, err := c.Submit(ctx, correctbench.ExperimentSpec{
		Seed: e.seed, Reps: replayReps, Methods: replayMethods, Workers: e.workers, NoTrace: true,
	})
	if err != nil {
		return nil, err
	}
	for range job.Events() {
	}
	if _, err := job.Wait(ctx); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	snap := job.Snapshot()
	if snap.TotalCells != replayCells || snap.StoreMisses != replayCells {
		return nil, fmt.Errorf("fill: %d cells, %d simulated; want %d cold", snap.TotalCells, snap.StoreMisses, replayCells)
	}
	return snap.Tables, nil
}

// replayService is a set-up replay daemon: store reopened, client and
// server started. store and handler are set when wrapped for tracing.
type replayService struct {
	*service
	openMS  float64
	setupS  float64
	store   *timedStore
	handler *timedHandler
}

// setupReplay reopens the filled store as a restarted daemon would and
// starts a server over it.
func setupReplay(dir string, wrapped bool) (*replayService, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := correctbench.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	rs := &replayService{openMS: float64(time.Since(t0).Microseconds()) / 1000}
	if wrapped {
		rs.store = &timedStore{Store: st}
		st = rs.store
	}
	c := correctbench.NewClient(correctbench.WithStore(st))
	var h http.Handler = correctbench.NewServer(c)
	if wrapped {
		rs.handler = &timedHandler{h: h}
		h = rs.handler
	}
	if rs.service, err = startService(c, h); err != nil {
		_ = c.Close(context.Background())
		return nil, err
	}
	rs.setupS = time.Since(t0).Seconds()
	return rs, nil
}

// replayResp is one streamed response.
type replayResp struct {
	job     string
	first   []byte // the job_started line, which carries the job ID
	rest    []byte // every later line
	firstMS float64
	totalMS float64
}

// stream posts the spec and reads the NDJSON response to its end.
func (s *service) stream(spec []byte, buf *bytes.Buffer) (replayResp, error) {
	t0 := time.Now()
	resp, err := s.hc.Post(s.url+"/v1/experiments", "application/json", bytes.NewReader(spec))
	if err != nil {
		return replayResp{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return replayResp{}, fmt.Errorf("POST /v1/experiments: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	first, err := br.ReadBytes('\n')
	if err != nil {
		return replayResp{}, err
	}
	r := replayResp{job: resp.Header.Get("X-Correctbench-Job"), first: first}
	r.firstMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	buf.Reset()
	if _, err := buf.ReadFrom(br); err != nil {
		return replayResp{}, err
	}
	r.totalMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	r.rest = buf.Bytes()
	return r, nil
}

// verifyStream decodes a full response: every cell replayed, the job
// succeeded, and the tables equal the cold fill's byte for byte.
func verifyStream(r replayResp, tables map[string]string) error {
	cells, done := 0, false
	got := map[string]string{}
	for _, line := range bytes.Split(bytes.TrimSpace(append(append([]byte(nil), r.first...), r.rest...)), []byte("\n")) {
		ev, err := correctbench.UnmarshalEvent(line)
		if err != nil {
			return err
		}
		switch ev := ev.(type) {
		case correctbench.CellFinished:
			cells++
		case correctbench.TableReady:
			got[ev.Name] = ev.Text
		case correctbench.JobDone:
			if ev.Err != nil {
				return fmt.Errorf("job failed: %v", ev.Err)
			}
			done = true
		}
	}
	if cells != replayCells || !done {
		return fmt.Errorf("%d cells, job_done %t", cells, done)
	}
	for name, text := range tables {
		if got[name] != text {
			return fmt.Errorf("table %s differs from the cold fill's", name)
		}
	}
	return nil
}

// replayRun drives ops against a set-up service: the first response
// is decoded in full and becomes the reference every later response
// must equal byte for byte (after the job_started line); every op must
// hit the store for every cell.
type replayRun struct {
	s      *replayService
	spec   []byte
	tables map[string]string
	want   []byte
	buf    bytes.Buffer
}

func (rr *replayRun) op(out *outcome) replayResp {
	r, err := rr.s.stream(rr.spec, &rr.buf)
	if err == nil && rr.want == nil {
		if err = verifyStream(r, rr.tables); err == nil {
			rr.want = append([]byte(nil), r.rest...)
		}
	}
	hits, misses := -1, -1
	if job := rr.s.client.Job(r.job); err == nil && job != nil {
		snap := job.Snapshot()
		hits, misses = snap.StoreHits, snap.StoreMisses
	}
	out.checkf(err == nil && bytes.Equal(r.rest, rr.want) && hits == replayCells && misses == 0,
		"replay op: err=%v identical=%t hits=%d misses=%d", err, bytes.Equal(r.rest, rr.want), hits, misses)
	return r
}

// prepareReplay sets the service up over the filled store several times
// (keeping the last), then warms it until the client's job history is
// full. It returns the set-up times scaled by the run's calibrator, the
// raw ones and the store open times.
func prepareReplay(e env, dir string, tables map[string]string, wrapped, noTrace bool, setups int, out *outcome) (*replayRun, []float64, []float64, []float64, error) {
	var setupS, rawS, openMS []float64
	var s *replayService
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		secs, raw, err := e.cal.setup(func() (float64, error) {
			var err error
			if s, err = setupReplay(dir, wrapped); err != nil {
				return 0, err
			}
			return s.setupS, nil
		})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		setupS, rawS = append(setupS, secs), append(rawS, raw)
		openMS = append(openMS, s.openMS)
	}
	rr := &replayRun{s: s, spec: replaySpec(e, noTrace), tables: tables}
	for i := 0; i < replayRetained; i++ {
		rr.op(out)
	}
	return rr, setupS, rawS, openMS, nil
}

func measureReplay(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{}
	dir := filepath.Join(e.tmp, "replay-store")
	tables, err := fillStore(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	rr, setups, rawSetups, _, err := prepareReplay(e, dir, tables, false, true, replaySetups, out)
	if err != nil {
		return nil, err
	}
	defer rr.s.close()
	n := e.ops(replayNominal, replayTraced)
	var lat, alloc []float64
	from := e.cal.mark()
	for i := 0; i < n; i++ {
		e.cal.slice()
		before := readRuntime()
		lat = append(lat, rr.op(out).totalMS)
		alloc = append(alloc, float64(readRuntime().allocBytes-before.allocBytes))
	}
	e.cal.slice()
	summarizeE2E(out, e.cal.pass(from, lat), replayChunk, alloc, setups, rawSetups)
	out.count("ops", n)
	out.count("cells_per_op", replayCells)
	return out, nil
}

func tracedReplay(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{}
	n := e.ops(replayNominal, replayTraced)

	dir := filepath.Join(e.tmp, "replay-store")
	tables, err := fillStore(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	plain, _, _, _, err := prepareReplay(e, dir, tables, false, true, 1, out)
	if err != nil {
		return nil, err
	}
	var plainMS float64
	for i := 0; i < n; i++ {
		plainMS += plain.op(out).totalMS
	}
	plain.s.close()

	rr, _, _, openMS, err := prepareReplay(e, dir, tables, true, false, 3, out)
	if err != nil {
		return nil, err
	}
	defer rr.s.close()
	st, th := rr.s.store, rr.s.handler
	st.gets.Store(0)
	st.hits.Store(0)
	st.getNS.Store(0)
	th.handlNS.Store(0)
	th.ioNS.Store(0)

	var first, total []float64
	var lookupUS int64
	var lines, bytesRead int
	before := readRuntime()
	for i := 0; i < n; i++ {
		r := rr.op(out)
		first = append(first, r.firstMS)
		total = append(total, r.totalMS)
		lines += 1 + bytes.Count(r.rest, []byte("\n"))
		bytesRead += len(r.first) + len(r.rest)
		if job := rr.s.client.Job(r.job); job != nil {
			lookupUS += spanTotals(job.Trace())[obs.PhaseLookup]
		}
	}
	after := readRuntime()

	ops := float64(n)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	roundTrip := sum(total) / ops
	handler := ms(th.handlNS.Load())
	lookup := float64(lookupUS) / 1000 / ops
	writes := ms(th.ioNS.Load())
	out.set("store.get_us", "us", float64(st.getNS.Load())/1000/float64(max(st.gets.Load(), 1)))
	out.set("harness.store_lookup_ms_per_op", "ms", lookup)
	out.set("service.first_event_ms", "ms", median(first))
	out.set("service.handler_ms_per_op", "ms", handler)
	out.set("service.write_flush_ms_per_op", "ms", writes)
	out.set("store.open_ms", "ms", median(openMS))
	out.set("store.gets_per_op", "count", float64(st.gets.Load())/ops)
	out.set("store.hit_frac", "fraction", float64(st.hits.Load())/float64(max(st.gets.Load(), 1)))
	out.set("events.lines_per_op", "count", float64(lines)/ops)
	out.set("events.kb_per_op", "kB", float64(bytesRead)/1000/ops)
	out.set("runtime.gc_cpu_frac", "fraction", gcFrac(before, after))
	// Attributed: transport (round trip minus handler), the harness's
	// store lookups and the response writes; the residual is event
	// publishing and encoding inside the handler.
	attributed := (roundTrip - handler + lookup + writes) / roundTrip
	out.set("trace.attributed_frac", "fraction", attributed)
	out.set("trace.residual_frac", "fraction", 1-attributed)
	out.set("obs.trace_overhead_pct", "%", 100*(sum(total)-plainMS)/sum(total))
	out.count("ops", n)
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"correctbench"
	"correctbench/internal/autobench"
	"correctbench/internal/dataset"
	"correctbench/internal/llm"
	"correctbench/internal/obs"
	"correctbench/internal/rng"
	"correctbench/internal/testbench"
	"correctbench/internal/vstatic"
)

// grade: the grading service. One op is one POST /v1/grade of a
// wire-form testbench over one keep-alive loopback connection.

const (
	// gradeNominal sizes the body list: requests per --seconds;
	// gradeTraced on a traced run. At --seconds 30 the timed pass
	// (requests plus calibration slices) takes about 12 s on the
	// 2-vCPU host the benchmark was tuned on, and checking every grade
	// in process before it about as long.
	gradeNominal = 120
	gradeTraced  = 50
	// gradePool is how many problems the bodies are drawn from; setup
	// warms exactly these fixtures.
	gradePool = 48
	// gradeSetups is how many times a run sets the service up.
	gradeSetups = 5
	// gradeChunk is the chunk the run's medians are taken over (see
	// summarizeE2E): six cycles, so every chunk grades the same mix of
	// problems and generators, and its tail is near the 96th percentile.
	gradeChunk = 6 * gradePool
)

// wire forms of POST /v1/grade, as documented on correctbench.NewServer.
type wireScenario struct {
	Name  string              `json:"name,omitempty"`
	Steps []map[string]uint64 `json:"steps"`
}

type wireTestbench struct {
	Scenarios     []wireScenario `json:"scenarios"`
	CheckerSource string         `json:"checker_source"`
	CheckerTop    string         `json:"checker_top,omitempty"`
}

type gradeRequest struct {
	Problem   string        `json:"problem"`
	Seed      int64         `json:"seed"`
	Testbench wireTestbench `json:"testbench"`
}

// gradeBody is one op: the request body and what it must grade as.
type gradeBody struct {
	problem string
	wire    wireTestbench
	body    []byte
	expect  correctbench.GradeLevel
}

// gradePoolProblems is the fixed problem pool bodies are drawn from:
// the same for every seed, so the service always holds the same
// fixtures.
func gradePoolProblems() []*dataset.Problem {
	names := dataset.Names()
	r := rng.New(0).Child("perfbench", "grade-pool").Rand()
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	out := make([]*dataset.Problem, gradePool)
	for i := range out {
		out[i] = dataset.ByName(names[i])
	}
	return out
}

// gradeMethods are the generators whose testbenches are graded.
var gradeMethods = []string{"AutoBench", "Baseline"}

// gradeCorpusSeed fixes the content of every body: the workload seed
// orders the bodies but does not draw them. Grading cost depends
// strongly on the testbench (a 23 kB AutoBench body for alu4 grades 20
// times slower than a 1 kB one), so bodies drawn from the workload seed
// made each seed's pass a different amount of work; with the content
// fixed, every seed grades the same bodies in another order.
const gradeCorpusSeed = 42

// gradeOp generates the body for problem p in cycle c of a stream: a
// testbench by the named generator, drawn from the body's own random
// stream, so the corpus is a pure function of (stream, c, p) and every
// prefix is stable. A retry index gives a fresh draw for the same body.
func gradeOp(stream string, c, retry int, p *dataset.Problem, method string) (gradeBody, error) {
	r := rng.New(gradeCorpusSeed).Child("perfbench", stream).ChildN("cycle", c).Child("problem", p.Name).ChildN("retry", retry).Rand()
	prof := llm.GPT4o()
	gen, err := autobench.ForMethod(method, prof)
	if err != nil {
		return gradeBody{}, err
	}
	trait := prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r)
	var acct llm.Accountant
	tb, err := gen.Generate(p, trait, r, &acct)
	if err != nil {
		return gradeBody{}, err
	}
	w := wireTestbench{CheckerSource: tb.CheckerSource, CheckerTop: tb.CheckerTop}
	for _, sc := range tb.Scenarios {
		ws := wireScenario{Name: sc.Name}
		for _, st := range sc.Steps {
			ws.Steps = append(ws.Steps, st.Inputs)
		}
		w.Scenarios = append(w.Scenarios, ws)
	}
	body, err := json.Marshal(gradeRequest{Problem: p.Name, Seed: gradeCorpusSeed, Testbench: w})
	if err != nil {
		return gradeBody{}, err
	}
	return gradeBody{problem: p.Name, wire: w, body: body}, nil
}

// gradeCell assigns body i its problem and generator. The list is
// stratified: each cycle of len(pool) consecutive bodies covers every
// pool problem once, in an order the seed shuffles per cycle, and
// cycles alternate the generator. Every seed grades the same mix of
// problems and generators, and (see gradeCorpusSeed) the same bodies.
func gradeCell(seed int64, i int, pool []*dataset.Problem) (*dataset.Problem, string) {
	c := i / len(pool)
	perm := rng.New(seed).Child("perfbench", "grade-cycle").ChildN("cycle", c).Rand().Perm(len(pool))
	return pool[perm[i%len(pool)]], gradeMethods[c%len(gradeMethods)]
}

// gradeOps is the op sequence prefix of length n. Bodies never repeat
// within it: a duplicate is drawn again. Every cycle's bodies are
// fixed before the seed orders them, so the redraws are the same for
// every seed.
func gradeOps(seed int64, n int) ([]gradeBody, error) {
	pool := gradePoolProblems()
	seen := map[string]bool{}
	byCell := map[string]gradeBody{}
	for c := 0; c*len(pool) < n; c++ {
		method := gradeMethods[c%len(gradeMethods)]
		for _, p := range pool {
			for retry := 0; ; retry++ {
				b, err := gradeOp("grade", c, retry, p, method)
				if err != nil {
					return nil, err
				}
				if !seen[string(b.body)] {
					seen[string(b.body)] = true
					byCell[fmt.Sprint(c, "/", p.Name)] = b
					break
				}
			}
		}
	}
	out := make([]gradeBody, n)
	for i := range out {
		p, _ := gradeCell(seed, i, pool)
		out[i] = byCell[fmt.Sprint(i/len(pool), "/", p.Name)]
	}
	return out, nil
}

// gradeRunOps is how many bodies a run grades: the nominal count for
// its size, rounded up to whole cycles, so that every seed grades the
// same bodies.
func gradeRunOps(e env) int {
	n := e.ops(gradeNominal, gradeTraced)
	return (n + gradePool - 1) / gradePool * gradePool
}

// gradeWarmups is one body per pool problem, from a stream the timed
// list never draws from.
func gradeWarmups() ([]gradeBody, error) {
	pool := gradePoolProblems()
	out := make([]gradeBody, len(pool))
	for i, p := range pool {
		b, err := gradeOp("grade-warm", 0, 0, p, gradeMethods[i%len(gradeMethods)])
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// fromWire rebuilds the in-memory testbench a wire body describes, the
// way the service documents it: scenarios renumbered from 1, the
// driver re-emitted from them, the checker top defaulting to the
// problem's. It is the benchmark's independent path to a grade.
func fromWire(problem string, w wireTestbench) *correctbench.Testbench {
	p := dataset.ByName(problem)
	tb := &testbench.Testbench{Problem: p, CheckerSource: w.CheckerSource, CheckerTop: w.CheckerTop, CheckerSticky: -1}
	if tb.CheckerTop == "" {
		tb.CheckerTop = p.Top
	}
	for i, sc := range w.Scenarios {
		s := testbench.Scenario{Index: i + 1, Name: sc.Name}
		if s.Name == "" {
			s.Name = fmt.Sprintf("scenario_%d", i+1)
		}
		for _, in := range sc.Steps {
			s.Steps = append(s.Steps, testbench.Step{Inputs: in})
		}
		tb.Scenarios = append(tb.Scenarios, s)
	}
	tb.DriverSource = testbench.EmitDriver(tb)
	return tb
}

// expectGrades grades every body in process on a reference client,
// before any clock starts, and returns the per-level counts.
func expectGrades(ctx context.Context, seed int64, bodies []gradeBody) (map[string]int, error) {
	ref := correctbench.NewClient()
	counts := map[string]int{}
	for i := range bodies {
		g, err := ref.Grade(ctx, fromWire(bodies[i].problem, bodies[i].wire), seed)
		if err != nil {
			return nil, err
		}
		bodies[i].expect = g
		counts[g.String()]++
	}
	return counts, nil
}

// service is a correctbench server on a loopback listener plus the
// one-connection HTTP client that drives it.
type service struct {
	client *correctbench.Client
	srv    *http.Server
	url    string
	hc     *http.Client
	done   chan struct{}
}

func startService(c *correctbench.Client, h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		client: c,
		srv:    &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server, waits for its accept loop to end and closes
// the client (and with it any store).
func (s *service) close() {
	s.hc.CloseIdleConnections()
	_ = s.srv.Close()
	<-s.done
	_ = s.client.Close(context.Background())
}

// post sends one body and returns the response bytes.
func (s *service) post(path string, body []byte) ([]byte, error) {
	resp, err := s.hc.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// gradeOf decodes a grade response.
func gradeOf(raw []byte) (string, error) {
	var resp struct {
		Grade string `json:"grade"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return "", err
	}
	if resp.Grade == "" {
		return "", errors.New("grade response without a grade")
	}
	return resp.Grade, nil
}

// setupGrade starts a fresh client and server and warms the fixtures
// of every pool problem through the service, returning the elapsed
// set-up time. wrap, when set, wraps the handler.
func setupGrade(warm []gradeBody, wrap func(http.Handler) http.Handler) (*service, float64, error) {
	runtime.GC()
	t0 := time.Now()
	c := correctbench.NewClient()
	h := correctbench.NewServer(c)
	if wrap != nil {
		h = wrap(h)
	}
	s, err := startService(c, h)
	if err != nil {
		return nil, 0, err
	}
	for _, b := range warm {
		if _, err := s.post("/v1/grade", b.body); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

// gradePass posts every body once, checking each grade, and returns
// the per-request latencies (ms) and allocations (bytes). With a
// calibrator it times one calibration slice before each request and
// one after the last.
func gradePass(s *service, bodies []gradeBody, out *outcome, cal *calibrator) (latMS, allocB []float64) {
	for _, b := range bodies {
		cal.slice()
		before := readRuntime()
		t := time.Now()
		raw, err := s.post("/v1/grade", b.body)
		latMS = append(latMS, float64(time.Since(t).Nanoseconds())/1e6)
		allocB = append(allocB, float64(readRuntime().allocBytes-before.allocBytes))
		var got string
		if err == nil {
			got, err = gradeOf(raw)
		}
		out.checkf(err == nil && got == b.expect.String(), "grade %s: got %q (err %v), want %s", b.problem, got, err, b.expect)
	}
	cal.slice()
	return latMS, allocB
}

func gradeInputs(ctx context.Context, e env) (bodies, warm []gradeBody, counts map[string]int, err error) {
	if bodies, err = gradeOps(e.seed, gradeRunOps(e)); err != nil {
		return nil, nil, nil, err
	}
	if warm, err = gradeWarmups(); err != nil {
		return nil, nil, nil, err
	}
	if counts, err = expectGrades(ctx, gradeCorpusSeed, bodies); err != nil {
		return nil, nil, nil, err
	}
	return bodies, warm, counts, nil
}

func measureGrade(ctx context.Context, e env) (*outcome, error) {
	bodies, warm, counts, err := gradeInputs(ctx, e)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	cal := e.cal
	var setups, rawSetups []float64
	var s *service
	for i := 0; i < gradeSetups; i++ {
		if s != nil {
			s.close()
		}
		secs, raw, err := cal.setup(func() (float64, error) {
			var secs float64
			var err error
			s, secs, err = setupGrade(warm, nil)
			return secs, err
		})
		if err != nil {
			return nil, err
		}
		setups, rawSetups = append(setups, secs), append(rawSetups, raw)
	}
	defer s.close()

	from := cal.mark()
	lat, alloc := gradePass(s, bodies, out, cal)
	summarizeE2E(out, cal.pass(from, lat), gradeChunk, alloc, setups, rawSetups)
	out.count("grades", counts)
	out.count("bodies", len(bodies))
	return out, nil
}

func tracedGrade(ctx context.Context, e env) (*outcome, error) {
	bodies, warm, counts, err := gradeInputs(ctx, e)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	ops := float64(len(bodies))

	// The fixture build of the pool alone: the warm-up bodies graded
	// in process on a fresh client.
	runtime.GC()
	fresh := correctbench.NewClient()
	fixtureStart := time.Now()
	for _, b := range warm {
		if _, err := fresh.Grade(ctx, fromWire(b.problem, b.wire), gradeCorpusSeed); err != nil {
			return nil, err
		}
	}
	fixtureS := time.Since(fixtureStart).Seconds()

	plain, _, err := setupGrade(warm, nil)
	if err != nil {
		return nil, err
	}
	plainLat, _ := gradePass(plain, bodies, out, nil)
	plain.close()

	th := &timedHandler{}
	traced, _, err := setupGrade(warm, func(h http.Handler) http.Handler { th.h = h; return th })
	if err != nil {
		return nil, err
	}
	th.handlNS.Store(0)
	before := readRuntime()
	lat, _ := gradePass(traced, bodies, out, nil)
	after := readRuntime()
	defer traced.close()

	// The same bodies in process, layer by layer, on the traced
	// service's client and its warm fixtures.
	c := traced.client
	var syntaxNS, gradeNS, lintNS int64
	var eval2 int
	lt := newLayerTimes()
	for _, b := range bodies {
		tb := fromWire(b.problem, b.wire)
		t := time.Now()
		tb.SyntaxOK()
		syntaxNS += int64(time.Since(t))

		col := obs.NewCollector(time.Now())
		tb = fromWire(b.problem, b.wire)
		t = time.Now()
		g, err := c.Grade(obs.WithCollector(ctx, col), tb, gradeCorpusSeed)
		gradeNS += int64(time.Since(t))
		lt.add(col.Samples())
		out.checkf(err == nil && g == b.expect, "in-process grade %s: got %s (err %v), want %s", b.problem, g, err, b.expect)
		if g == correctbench.Eval2 {
			eval2++
		}

		t = time.Now()
		_, _ = vstatic.AnalyzeSource(tb.CheckerSource, tb.CheckerTop) // an unparsable checker is a valid input here
		lintNS += int64(time.Since(t))
	}

	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	handler := ms(th.handlNS.Load())
	roundTrip := sum(lat) / ops
	out.set("service.handler_ms_per_op", "ms", handler)
	out.set("service.transport_ms_per_op", "ms", roundTrip-handler)
	out.set("service.self_ms_per_op", "ms", handler-ms(gradeNS)-ms(lintNS))
	out.set("testbench.syntax_ok_ms_per_op", "ms", ms(syntaxNS))
	out.set("vstatic.lint_ms_per_op", "ms", ms(lintNS))
	out.set("autoeval.grade_ms_per_op", "ms", ms(gradeNS))
	out.set("sim.run_ms_per_op", "ms", lt.ms(obs.PhaseRun)/ops)
	out.set("runtime.gc_cpu_frac", "fraction", gcFrac(before, after))
	out.set("autoeval.eval2_frac", "fraction", float64(eval2)/ops)
	out.set("autoeval.fixture_s", "s", fixtureS)
	// Attributed: the round trip split into transport, grading and
	// lint; the residual is the handler's own work (JSON, rebuilding
	// the testbench, response).
	attributed := (roundTrip - handler + ms(gradeNS) + ms(lintNS)) / roundTrip
	out.set("trace.attributed_frac", "fraction", attributed)
	out.set("trace.residual_frac", "fraction", 1-attributed)
	out.set("obs.trace_overhead_pct", "%", 100*(sum(lat)-sum(plainLat))/sum(lat))
	out.count("grades", counts)
	out.count("bodies", len(bodies))
	return out, nil
}

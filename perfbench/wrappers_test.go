package main

import (
	"bytes"
	"net/http"
	"regexp"
	"testing"

	"correctbench"
)

// durationField is the one wall-clock field of the event stream.
var durationField = regexp.MustCompile(`"duration_ms":[0-9.e+-]+`)

// serveOnce streams one cold and one warm run of spec and grades body
// through a fresh service, with or without the benchmark's wrappers,
// and returns the response bytes.
func serveOnce(t *testing.T, wrapped bool, spec, body []byte) (cold, warm, grade []byte) {
	t.Helper()
	var st correctbench.Store = correctbench.NewMemoryStore(0)
	var ts *timedStore
	if wrapped {
		ts = &timedStore{Store: st}
		st = ts
	}
	c := correctbench.NewClient(correctbench.WithStore(st))
	var h http.Handler = correctbench.NewServer(c)
	var th *timedHandler
	if wrapped {
		th = &timedHandler{h: h}
		h = th
	}
	s, err := startService(c, h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var buf bytes.Buffer
	for _, dst := range []*[]byte{&cold, &warm} {
		r, err := s.stream(spec, &buf)
		if err != nil {
			t.Fatal(err)
		}
		*dst = durationField.ReplaceAll(append(append([]byte(nil), r.first...), r.rest...), []byte(`"duration_ms":0`))
	}
	if grade, err = s.post("/v1/grade", body); err != nil {
		t.Fatal(err)
	}
	if wrapped && (ts.gets.Load() == 0 || ts.puts.Load() == 0 || th.handlNS.Load() == 0 || th.ioNS.Load() == 0) {
		t.Errorf("wrappers saw gets=%d puts=%d handler=%dns io=%dns", ts.gets.Load(), ts.puts.Load(), th.handlNS.Load(), th.ioNS.Load())
	}
	return cold, warm, grade
}

func TestWrappersLeaveStreamsIdentical(t *testing.T) {
	spec := []byte(`{"seed":3,"reps":2,"methods":["AutoBench","Baseline"],` +
		`"problems":["mux2_w4","cnt4","halfadd","dff"],"workers":2,"stream":true}`)
	bodies, err := gradeOps(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plainCold, plainWarm, plainGrade := serveOnce(t, false, spec, bodies[0].body)
	wrapCold, wrapWarm, wrapGrade := serveOnce(t, true, spec, bodies[0].body)
	if !bytes.Equal(plainCold, wrapCold) {
		t.Errorf("cold streams differ:\nplain:   %s\nwrapped: %s", plainCold, wrapCold)
	}
	if !bytes.Equal(plainWarm, wrapWarm) {
		t.Errorf("warm streams differ:\nplain:   %s\nwrapped: %s", plainWarm, wrapWarm)
	}
	if !bytes.Equal(plainGrade, wrapGrade) {
		t.Errorf("grade responses differ:\nplain:   %s\nwrapped: %s", plainGrade, wrapGrade)
	}
	if bytes.Count(plainCold, []byte("\n")) != 1+16+4+2+1 {
		t.Errorf("cold stream has %d lines, want 24", bytes.Count(plainCold, []byte("\n")))
	}
}

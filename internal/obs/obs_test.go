package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("root")
	if s.Enabled() {
		t.Fatal("span from nil tracer must be disabled")
	}
	c := s.Child("child").Arg("k", 1)
	c.End()
	s.End()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents": []`) {
		t.Fatalf("nil tracer JSON: %s", b.String())
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("MaintainAll")
	v := root.Child("Validate").Arg("passed", 3)
	v.End()
	view := tr.StartSpan("view-0")
	p := view.Child("Propagate")
	op := p.Child("NavUnnest#2").Arg("tuples_out", 7)
	op.End()
	p.End()
	view.End()
	root.End()

	evs := tr.Events()
	// 2 metadata + 5 spans.
	if len(evs) != 7 {
		t.Fatalf("got %d events: %+v", len(evs), evs)
	}
	if evs[0].Ph != "M" || evs[1].Ph != "M" {
		t.Fatalf("metadata events must sort first: %+v", evs[:2])
	}
	byName := map[string]Event{}
	for _, e := range evs {
		if e.Ph == "X" {
			byName[e.Name] = e
		}
	}
	mainEv, opEv, propEv := byName["MaintainAll"], byName["NavUnnest#2"], byName["Propagate"]
	if opEv.TID != propEv.TID {
		t.Fatal("child span must share its parent's track")
	}
	if mainEv.TID == propEv.TID {
		t.Fatal("StartSpan must open a fresh track")
	}
	if opEv.TS < propEv.TS || opEv.TS+opEv.Dur > propEv.TS+propEv.Dur+0.001 {
		t.Fatalf("operator span not nested in Propagate: op=%+v prop=%+v", opEv, propEv)
	}
	if opEv.Args["tuples_out"] != 7 {
		t.Fatalf("args lost: %+v", opEv.Args)
	}

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("round-trip lost events: %d", len(doc.TraceEvents))
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := tr.StartSpan("worker")
			for j := 0; j < 50; j++ {
				c := s.Child("op").Arg("j", j)
				c.End()
			}
			s.End()
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 8+8*50+8 {
		t.Fatalf("event count = %d", got)
	}
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.CounterOf("xat_op_tuples_out_total", "tuples emitted", "op", "Join")
	c.Add(5)
	r.CounterOf("xat_op_tuples_out_total", "tuples emitted", "op", "Select").Inc()
	g := r.GaugeOf("xat_skeletons", "skeleton registry size")
	g.Set(42)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE xat_op_tuples_out_total counter",
		`xat_op_tuples_out_total{op="Join"} 5`,
		`xat_op_tuples_out_total{op="Select"} 1`,
		"# TYPE xat_skeletons gauge",
		"xat_skeletons 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Same name+labels returns the same series.
	if r.CounterOf("xat_op_tuples_out_total", "", "op", "Join").Value() != 5 {
		t.Fatal("re-registration did not return the existing series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramOf("phase_seconds", "phase latency", "phase", "validate")
	h.Observe(500 * time.Nanosecond) // <= 1µs bucket
	h.Observe(time.Microsecond)      // <= 1µs bucket
	h.Observe(3 * time.Microsecond)  // <= 4µs bucket
	h.Observe(time.Hour)             // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE phase_seconds histogram",
		`phase_seconds_bucket{phase="validate",le="1e-06"} 2`,
		`phase_seconds_bucket{phase="validate",le="4e-06"} 3`,
		`phase_seconds_bucket{phase="validate",le="+Inf"} 4`,
		`phase_seconds_count{phase="validate"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryResetAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.CounterOf("a_total", "")
	c.Add(3)
	h := r.HistogramOf("b_seconds", "")
	h.Observe(time.Millisecond)
	snap := r.Snapshot()
	if snap["a_total"] != int64(3) {
		t.Fatalf("snapshot: %+v", snap)
	}
	hv, ok := snap["b_seconds"].(map[string]any)
	if !ok || hv["count"] != int64(1) {
		t.Fatalf("histogram snapshot: %+v", snap["b_seconds"])
	}
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("reset did not zero series")
	}
	if r.CounterOf("a_total", "") != c {
		t.Fatal("reset must keep registered series pointers")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.CounterOf("requests_total", "").Add(7)
	h := Handler(r)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "requests_total 7") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}

func TestEnabledToggle(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if !Enabled() {
		t.Fatal("enable failed")
	}
	if !SetEnabled(false) {
		t.Fatal("swap must return previous state")
	}
	if Enabled() {
		t.Fatal("disable failed")
	}
}

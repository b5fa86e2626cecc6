package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the trace golden file")

// obsFixture builds a fresh store, views and update batch, identical across
// calls, so instrumented and uninstrumented arms maintain the same state.
func obsFixture(t *testing.T) (*xmldoc.Store, []*View, []*update.Primitive) {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		RunningExample,
		`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
		`<result>{ for $e in doc("prices.xml")/prices/entry return $e/price }</result>`,
		`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/author/last}</t> }</result>`,
	}
	views := make([]*View, len(queries))
	for i, q := range queries {
		v, err := NewView(s, q)
		if err != nil {
			t.Fatal(err)
		}
		v.Name = fmt.Sprintf("view-%d", i)
		views[i] = v
	}
	prims, err := update.ParseAndEvaluate(s, fig13)
	if err != nil {
		t.Fatal(err)
	}
	return s, views, prims
}

// stripDurations zeroes the wall-clock fields of a MaintStats so two runs
// can be compared on what they did rather than how long it took.
func stripDurations(ms *MaintStats) MaintStats {
	cp := *ms
	cp.Validate, cp.Propagate, cp.Apply, cp.Source, cp.Total = 0, 0, 0, 0, 0
	return cp
}

// TestMaintainAllObservabilityTransparent is the disabled/enabled fast-path
// contract: a concurrent MaintainAll with tracing and metrics on must
// produce exactly the same maintenance stats and extents as one with
// everything off. Run under -race (check.sh does) this also exercises
// concurrent span emission and metric recording from the worker pool.
func TestMaintainAllObservabilityTransparent(t *testing.T) {
	run := func(traced bool) ([]*MaintStats, []string) {
		s, views, prims := obsFixture(t)
		opt := Options{Parallelism: 4}
		if traced {
			prev := obs.SetEnabled(true)
			defer obs.SetEnabled(prev)
			opt.Tracer = obs.NewTracer()
		}
		stats, err := MaintainAll(s, views, prims, 0, opt)
		if err != nil {
			t.Fatalf("maintain (traced=%v): %v", traced, err)
		}
		if traced && opt.Tracer.Len() == 0 {
			t.Fatal("tracer recorded nothing")
		}
		extents := make([]string, len(views))
		for i, v := range views {
			extents[i] = CanonicalXML(v.Extent)
		}
		return stats, extents
	}
	offStats, offExt := run(false)
	onStats, onExt := run(true)
	if len(offStats) != len(onStats) {
		t.Fatalf("stats length: %d vs %d", len(offStats), len(onStats))
	}
	for i := range offStats {
		off, on := stripDurations(offStats[i]), stripDurations(onStats[i])
		if off != on {
			t.Errorf("view %d stats differ:\noff: %+v\non:  %+v", i, off, on)
		}
		if offExt[i] != onExt[i] {
			t.Errorf("view %d extent differs under tracing", i)
		}
	}
}

// TestMaintainAllErrorAttribution checks that propagate/apply failures name
// the responsible view.
func TestMaintainAllErrorAttribution(t *testing.T) {
	s, views, prims := obsFixture(t)
	// Sabotage one view's plan so propagation fails for it specifically: an
	// operator kind with no delta rule errors the moment it is propagated.
	bad := views[2]
	bad.Name = "prices-flat"
	for _, op := range bad.Plan.Ops() {
		op.Kind = xat.OpKind(99)
	}
	_, err := MaintainAll(s, views, prims, 0, Options{Parallelism: 1})
	if err == nil {
		t.Fatal("expected propagate failure")
	}
	if !strings.Contains(err.Error(), `view "prices-flat"`) {
		t.Fatalf("error does not name the failing view: %v", err)
	}
}

// goldenEvent is the stable shape of a trace event: phase/operator names,
// track assignment and event type, with timing stripped.
type goldenEvent struct {
	Ph   string `json:"ph"`
	TID  int64  `json:"tid"`
	Name string `json:"name"`
}

// TestTraceGoldenShape runs a sequential maintenance batch under the tracer
// and compares the emitted Chrome trace JSON — names, tracks, nesting order
// — against a golden file. Timing fields are stripped; with Parallelism 1
// the span order is deterministic. Regenerate after intentional plan or
// instrumentation changes with:
//
//	go test ./internal/core -run TestTraceGoldenShape -args -update-golden
func TestTraceGoldenShape(t *testing.T) {
	s, views, prims := obsFixture(t)
	tr := obs.NewTracer()
	if _, err := MaintainAll(s, views, prims, 0, Options{Parallelism: 1, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The file must be valid Chrome trace-event JSON: a traceEvents array
	// of complete ("X") and metadata ("M") events.
	var doc struct {
		TraceEvents []struct {
			goldenEvent
			TS  *float64       `json:"ts"`
			Dur *float64       `json:"dur"`
			PID int64          `json:"pid"`
			Arg map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var got []goldenEvent
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" && e.Ph != "M" {
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
		if e.Ph == "X" {
			if e.TS == nil {
				t.Fatalf("span %q missing ts", e.Name)
			}
			phases[e.Name] = true
		}
		got = append(got, e.goldenEvent)
	}
	for _, want := range []string{"MaintainAll", "Validate", "Propagate", "Apply", "SourceRefresh"} {
		if !phases[want] {
			t.Fatalf("trace missing %s span; have %v", want, phases)
		}
	}
	opSpans := 0
	for name := range phases {
		if strings.Contains(name, "#") {
			opSpans++
		}
	}
	if opSpans == 0 {
		t.Fatal("trace has no per-operator spans")
	}

	goldenPath := filepath.Join("testdata", "trace_golden.json")
	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -args -update-golden): %v", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("trace shape drifted from golden (regenerate with -args -update-golden if intentional)\ngot:\n%s\nwant:\n%s",
			gotJSON, want)
	}
}

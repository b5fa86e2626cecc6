package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smallLimit is the window of the 1/100-size runs.
var smallLimit = limit{rounds: 24, reads: 20, cap: time.Minute}

// scaled returns a copy of w at 1/div of its size (for the smoke test). A
// large view family keeps a few members of each kind.
func (w *workload) scaled(div int) *workload {
	c := *w
	if n := len(w.views); n > 8 {
		c.views = append(append([]string(nil), w.views[:6]...), w.views[n-2:]...)
	}
	c.books = max(w.books/div, 8)
	if w.persons > 0 {
		c.persons = max(w.persons/div, 4)
	}
	c.warm = max(w.warm/div, 4)
	if c.paced {
		c.rate *= 10 // keep the schedule short, not the engine idle
	}
	return &c
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, o *outcome, defs []metricDef, nonZero bool) {
	t.Helper()
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
	}
	if len(o.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(o.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.name]
		switch {
		case !metricName.MatchString(d.name):
			t.Errorf("metric name %q is outside the allowed characters", d.name)
		case !ok:
			t.Errorf("metric %s not reported", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs both passes of every workload at
// 1/100 size.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			small := w.scaled(100)
			o, err := runUntraced(small, 1, smallLimit)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, o, endToEndMetrics, true)
			o, err = runTraced(small, 1, smallLimit, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, o, perLayerMetrics, false)
		})
	}
}

// TestSameSeedSameWork: the seed fixes the scripts, and with them every count
// the engine's own telemetry reports.
func TestSameSeedSameWork(t *testing.T) {
	counts := []string{
		"update.compact_drop_ratio", "validate.irrelevant_ratio", "sapt.view_skip_ratio",
		"xat.cache_hit_ratio", "xat.cache_evicts_per_round", "xat.cache_folds_per_round",
		"xat.delta_roots_per_round", "xat.shared_hits_per_round",
		"deepunion.merged_per_round", "deepunion.inserted_per_round",
		"deepunion.removed_per_round", "deepunion.modified_per_round",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			small := w.scaled(100)
			scripts := func(seed int64) string {
				gen := small.generator(seed)
				var s string
				for i := 0; i < 12; i++ {
					s += gen(i).script
				}
				return s
			}
			if scripts(5) != scripts(5) {
				t.Error("same seed, different scripts")
			}
			if scripts(5) == scripts(6) {
				t.Error("different seeds, same scripts")
			}
			a, err := runTraced(small, 3, smallLimit, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := runTraced(small, 3, smallLimit, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range counts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestOracleCatchesWrongExtent: the public API offers no way to damage an
// extent, so the test damages the pairing instead — once the two views'
// handles are swapped, the extent served under each name is no longer the
// result of the query it is checked against, which the oracle must report.
func TestOracleCatchesWrongExtent(t *testing.T) {
	w := findWorkload("feed-small").scaled(100)
	e, err := setUp(w, w.documents(1), 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	win := &window{}
	if oracle(e, win); win.failed != 0 {
		t.Fatalf("oracle fails on a healthy database: %v", win.errs)
	}
	e.views[0], e.views[1] = e.views[1], e.views[0]
	if oracle(e, win); win.failed != len(e.views) {
		t.Errorf("oracle reported %d mismatches on swapped views, want %d", win.failed, len(e.views))
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program in step:
// same workloads, same metric names and units.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, program %q (or their reasons differ)", i, m.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: manifest %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEndMetrics)
	same("per_layer", m.PerLayer, perLayerMetrics)
}

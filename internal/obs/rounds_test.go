package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRoundSeriesWindowSemantics(t *testing.T) {
	rs := NewRoundSeries(4, NewRegistry())
	if got := rs.Snapshot(); got != nil {
		t.Fatalf("empty series snapshot = %v, want nil", got)
	}
	for i := 1; i <= 3; i++ {
		rs.Append(RoundSample{TotalNS: int64(i)})
	}
	w := rs.Snapshot()
	if len(w) != 3 {
		t.Fatalf("window len = %d, want 3", len(w))
	}
	for i, s := range w {
		if s.Seq != uint64(i+1) || s.TotalNS != int64(i+1) {
			t.Fatalf("sample %d = seq %d total %d, want seq/total %d", i, s.Seq, s.TotalNS, i+1)
		}
		if s.UnixNano == 0 {
			t.Fatalf("sample %d missing completion timestamp", i)
		}
	}
	// Overflow: ring keeps the most recent cap samples, oldest first.
	for i := 4; i <= 10; i++ {
		rs.Append(RoundSample{TotalNS: int64(i)})
	}
	w = rs.Snapshot()
	if len(w) != 4 {
		t.Fatalf("wrapped window len = %d, want 4", len(w))
	}
	for i, s := range w {
		if want := uint64(7 + i); s.Seq != want {
			t.Fatalf("wrapped sample %d seq = %d, want %d", i, s.Seq, want)
		}
	}
	if rs.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rs.Total())
	}
	rs.Reset()
	if rs.Total() != 0 || rs.Snapshot() != nil {
		t.Fatal("Reset did not clear the series")
	}
}

// TestRoundSeriesConcurrent hammers appends and snapshots together: every
// observed sample must be whole (Seq matches the payload stamped from it)
// and windows must be strictly ordered. Run under -race this also proves
// the ring is publication-safe.
func TestRoundSeriesConcurrent(t *testing.T) {
	rs := NewRoundSeries(8, NewRegistry())
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				rs.Append(RoundSample{TotalNS: -1})
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := rs.Snapshot()
			for i := 1; i < len(w); i++ {
				if w[i].Seq <= w[i-1].Seq {
					t.Errorf("window out of order: %d after %d", w[i].Seq, w[i-1].Seq)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if rs.Total() != 2000 {
		t.Fatalf("Total = %d, want 2000", rs.Total())
	}
}

// TestRoundSeriesDisabledZeroAllocs pins the disabled recording path at
// exactly zero heap allocations: with the obs gate off, a maintenance round
// must pay one atomic load and nothing else for round telemetry.
func TestRoundSeriesDisabledZeroAllocs(t *testing.T) {
	defer SetEnabled(SetEnabled(false))
	rs := NewRoundSeries(8, NewRegistry())
	allocs := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			rs.Append(RoundSample{TotalNS: 1})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled round-telemetry path allocates %v/op, want exactly 0", allocs)
	}
}

func TestBuildRoundsPayload(t *testing.T) {
	defer SetEnabled(SetEnabled(true))
	rs := NewRoundSeries(4, NewRegistry())
	rs.Append(RoundSample{TotalNS: int64(5 * time.Millisecond), ValidateNS: int64(3 * time.Millisecond), PrimsIn: 3, PrimsOut: 2})
	p := BuildRoundsPayload(rs, func() map[string]any {
		return map[string]any{"journal_rounds": 7}
	})
	if !p.Enabled || p.RoundsTotal != 1 || len(p.Window) != 1 {
		t.Fatalf("payload shape off: %+v", p)
	}
	if p.Window[0].PrimsIn != 3 || p.Window[0].PrimsOut != 2 {
		t.Fatalf("window sample lost fields: %+v", p.Window[0])
	}
	if q := p.Quantiles["validate"]; q.N != 1 || q.P50 <= 0 {
		t.Fatalf("validate quantiles = %+v, want count 1 and positive p50", q)
	}
	if q := p.Quantiles["total"]; q.N != 1 {
		t.Fatalf("total quantiles = %+v", q)
	}
	if p.Extras["journal_rounds"] != 7 {
		t.Fatalf("extras not threaded: %v", p.Extras)
	}
}

// TestRoundSeriesFoldsIntoRegistry pins the fold: appending a sample moves
// the registry's round series by exactly the sample's fields. Phase
// latencies, runs and gauges come from committed rounds; an aborted round
// counts a rollback and what it restored.
func TestRoundSeriesFoldsIntoRegistry(t *testing.T) {
	r := NewRegistry()
	rs := NewRoundSeries(4, r)
	rs.Append(RoundSample{TotalNS: 9, PropagateNS: 4, ApplyNS: 2, PrimsIn: 5, PrimsOut: 3,
		Skipped: 2, DeltaRoots: 3, CacheHits: 4, CacheMisses: 1, CacheFolds: 2, CacheEntries: 7,
		SharedGroups: 1, SharedFanout: 3, SharedHits: 2, Merged: 1, Inserted: 2, Removed: 3, Modified: 4,
		SnapEpoch: 6, SnapReaders: 2})
	rs.Append(RoundSample{Aborted: true, TotalNS: 3, PrimsIn: 2, PrimsOut: 2, RollbackRestored: 5})
	counter := func(name string, labels ...string) int64 { return r.CounterOf(name, "", labels...).Value() }
	gauge := func(name string) int64 { return r.GaugeOf(name, "").Value() }
	for name, want := range map[string]int64{
		"xqview_maintain_runs_total":        1,
		"xqview_round_rollbacks_total":      1,
		"xqview_rollback_restored_total":    5,
		"xqview_views_skipped_total":        2,
		"xat_delta_rows_total":              3,
		"xat_state_cache_hits_total":        4,
		"xat_state_cache_misses_total":      1,
		"xat_state_cache_folds_total":       2,
		"xat_shared_prefix_groups_total":    1,
		"xat_shared_prefix_fanout_total":    3,
		"xat_shared_prefix_hits_total":      2,
		"deepunion_nodes_merged_total":      1,
		"deepunion_subtrees_inserted_total": 2,
		"deepunion_fragments_removed_total": 3,
		"deepunion_values_modified_total":   4,
		"update_compact_batches_total":      1,
	} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, rule := range []string{"all", "coalesce"} {
		if got := counter("update_compact_prims_dropped_total", "rule", rule); got != 2 {
			t.Errorf("update_compact_prims_dropped_total{rule=%q} = %d, want 2", rule, got)
		}
	}
	for name, want := range map[string]int64{
		"xat_state_cache_entries": 7, "xqview_snapshot_epoch": 6, "xqview_snapshot_readers": 2,
	} {
		if got := gauge(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, phase := range []string{"validate", "propagate", "apply", "source"} {
		if n := r.HistogramOf("xqview_phase_seconds", "", "phase", phase).Count(); n != 1 {
			t.Errorf("phase %s observed %d times, want once (committed rounds only)", phase, n)
		}
	}
	if n := r.HistogramOf("xqview_maintain_seconds", "").Count(); n != 1 {
		t.Errorf("xqview_maintain_seconds observed %d times, want 1", n)
	}
}

func TestRoundsHandlerJSON(t *testing.T) {
	rs := NewRoundSeries(4, NewRegistry())
	rs.Append(RoundSample{TotalNS: 42, Aborted: true})
	srv := httptest.NewServer(RoundsHandler(rs, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var p RoundsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("response is not a RoundsPayload: %v", err)
	}
	if p.RoundsTotal != 1 || len(p.Window) != 1 || !p.Window[0].Aborted {
		t.Fatalf("payload = %+v", p)
	}
	if _, ok := p.Quantiles["propagate"]; !ok {
		t.Fatal("payload missing propagate quantiles")
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status        string  `json:"status"`
		Rounds        uint64  `json:"rounds"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	if body.Status != "ok" || body.UptimeSeconds <= 0 {
		t.Fatalf("healthz body = %+v", body)
	}
	// The index page lists the probe.
	idx, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Body.Close()
	page, err := io.ReadAll(idx.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "/healthz") {
		t.Fatalf("index does not list /healthz:\n%s", page)
	}
}

package obs

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// Round telemetry: one fixed-size RoundSample per MaintainAll round,
// appended into a lock-free ring (RoundSeries). The sample is the round's
// only record: Append keeps it in the ring (the windowed data source of the
// /stats/rounds endpoint and the xqtop dashboard: "what did the last N rounds
// actually do", per phase, per subsystem, one row per round) and folds it
// into the per-round series of the registry the ring was built over (the
// cumulative view /metrics scrapes). No other code records a per-round fact,
// so the two views cannot disagree.
//
// Appending is gated by Enabled() at the recording site (core.MaintainAll),
// so the disabled path costs one atomic load and zero allocations (asserted
// by TestRoundSeriesDisabledZeroAllocs). The enabled path publishes each
// sample behind a per-slot atomic pointer: readers always observe a whole
// sample, writers never block, and the one small allocation per round is
// invisible next to a maintenance round's work.

// RoundSample is the telemetry of one maintenance round. All fields are
// fixed-size scalars so a sample copies into its ring slot without
// allocating and marshals to one flat JSON object.
type RoundSample struct {
	// Seq is the 1-based append sequence number assigned by the ring.
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock completion time (dashboard freshness; the
	// provenance journal stays timestamp-free, telemetry need not).
	UnixNano int64 `json:"unix_nano"`
	// Aborted marks a round that failed and was rolled back. Its phase
	// fields hold the phases that ran, the failing one up to the failure,
	// and RollbackNS; the phases after the failure are zero.
	Aborted bool `json:"aborted,omitempty"`

	// EvalNS is the wall time spent parsing the round's update script and
	// evaluating its targets, before the round began: it is not part of
	// TotalNS. Zero when the primitives did not come from a script.
	EvalNS int64 `json:"eval_ns"`

	// Wall time per round phase, nanoseconds, in pipeline order. One clock
	// reading ends a phase and starts the next, so these eight partition the
	// round: they sum to TotalNS exactly. PoolNS is the wall time of the
	// per-view Propagate+Apply pool.
	CompactNS  int64 `json:"compact_ns"`
	ValidateNS int64 `json:"validate_ns"`
	SharedNS   int64 `json:"shared_ns"`
	PoolNS     int64 `json:"pool_ns"`
	SourceNS   int64 `json:"source_ns"`
	SnapshotNS int64 `json:"snapshot_ns"`
	CommitNS   int64 `json:"commit_ns"`
	RollbackNS int64 `json:"rollback_ns,omitempty"`
	TotalNS    int64 `json:"total_ns"`

	// RollbackRestored counts what an aborted round's rollback discarded:
	// draft node records plus candidate extent copies.
	RollbackRestored int32 `json:"rollback_restored,omitempty"`

	// PropagateNS/ApplyNS sum the per-view work inside the pool phase; with
	// parallel workers they can exceed PoolNS.
	PropagateNS int64 `json:"propagate_ns"`
	ApplyNS     int64 `json:"apply_ns"`

	// PrimsIn/PrimsOut are the batch sizes before and after compaction;
	// aborted rounds carry them too.
	PrimsIn  int32 `json:"prims_in"`
	PrimsOut int32 `json:"prims_out"`

	// Views is the round's view count; Skipped of them were pruned by the
	// relevance filter, the rest were maintained.
	Views      int32 `json:"views"`
	Skipped    int32 `json:"skipped"`
	DeltaRoots int32 `json:"delta_roots"`

	// State-cache activity of this round (deltas, not lifetime totals) over
	// every cache it touched: the views' and the shared prefixes'
	// partitions. CacheEntries is the tables all of them hold at commit.
	CacheHits    int32 `json:"cache_hits"`
	CacheMisses  int32 `json:"cache_misses"`
	CacheFolds   int32 `json:"cache_folds"`
	CacheEvicts  int32 `json:"cache_evicts"`
	CacheEntries int32 `json:"cache_entries"`

	// Shared sub-plan activity of this round: prefix groups propagated once,
	// member subscriptions the results fanned out to, and the per-view
	// subtree propagations sharing saved (fanout - groups).
	SharedGroups int32 `json:"shared_groups"`
	SharedFanout int32 `json:"shared_fanout"`
	SharedHits   int32 `json:"shared_hits"`

	// Deep-union extent traffic of the apply phase, and the bytes it
	// allocated for extent copies, attached fragments and pointer lists.
	Merged     int32 `json:"merged"`
	Inserted   int32 `json:"inserted"`
	Removed    int32 `json:"removed"`
	Modified   int32 `json:"modified"`
	ApplyBytes int64 `json:"apply_bytes"`

	// Arena occupancy at commit: bytes bump-allocated by the round's view
	// arenas and the chunk count backing them.
	ArenaBytes  int64 `json:"arena_bytes"`
	ArenaChunks int32 `json:"arena_chunks"`

	// MVCC snapshot state at the round's pointer swap: the epoch this round
	// published (0 when no registry is attached), retired versions still
	// awaiting reader drain, and reader handles out at publish time.
	// SnapDepth is always 0: a store version is one trie root, with no
	// overlay chain to measure. The field stays because the benchmark, whose
	// sources change only in a benchmark revision, still reads it.
	SnapEpoch   int64 `json:"snap_epoch,omitempty"`
	SnapRetired int32 `json:"snap_retired,omitempty"`
	SnapReaders int32 `json:"snap_readers,omitempty"`
	SnapDepth   int32 `json:"snap_depth,omitempty"`

	// HeapAllocs counts heap objects allocated during the round (from
	// runtime/metrics), the live allocs/op signal.
	HeapAllocs int64 `json:"heap_allocs"`
}

// DefaultRoundWindow is the sample capacity of the Default round series:
// enough history for quantile-sized sparklines without unbounded growth.
const DefaultRoundWindow = 256

// RoundSeries is a lock-free bounded ring of RoundSamples. Appends claim a
// slot with one atomic increment and publish the finished sample with one
// atomic pointer store, so concurrent maintenance rounds (different stores
// in one process) never contend on a mutex and readers never block writers:
// a reader either sees a slot's previous whole sample or its new whole
// sample, never a torn one.
type RoundSeries struct {
	slots []atomic.Pointer[RoundSample]
	total atomic.Uint64
	fold  roundFold
}

// Rounds is the process-wide round series core.MaintainAll records into; it
// folds every sample into the Default registry.
var Rounds = NewRoundSeries(DefaultRoundWindow, Default)

// NewRoundSeries creates a ring retaining the most recent capacity samples
// (capacity < 1 falls back to DefaultRoundWindow) that folds every appended
// sample into reg's round series.
func NewRoundSeries(capacity int, reg *Registry) *RoundSeries {
	if capacity < 1 {
		capacity = DefaultRoundWindow
	}
	return &RoundSeries{slots: make([]atomic.Pointer[RoundSample], capacity), fold: newRoundFold(reg)}
}

// roundFold holds the registry series derived from round samples, resolved
// once when the series is built.
type roundFold struct {
	validate, propagate, apply, source, total, read            *Histogram
	runs, rollbacks, restored, skipped                         *Counter
	merged, inserted, removed, modified                        *Counter
	cacheHits, cacheMisses, cacheFolds                         *Counter
	sharedGroups, sharedFanout, sharedHits                     *Counter
	deltaRows, compactBatches, compactDropped, compactCoalesce *Counter
	snapEpoch, snapRetired, snapReaders, cacheEntries          *Gauge
}

func newRoundFold(r *Registry) roundFold {
	const phase = "VPA phase latency per maintenance run"
	const dropped = "update primitives removed by compaction"
	return roundFold{
		validate:        r.HistogramOf("xqview_phase_seconds", phase, "phase", "validate"),
		propagate:       r.HistogramOf("xqview_phase_seconds", phase, "phase", "propagate"),
		apply:           r.HistogramOf("xqview_phase_seconds", phase, "phase", "apply"),
		source:          r.HistogramOf("xqview_phase_seconds", phase, "phase", "source"),
		total:           r.HistogramOf("xqview_maintain_seconds", "end-to-end maintenance batch latency"),
		read:            ReadSeconds(r),
		runs:            r.CounterOf("xqview_maintain_runs_total", "maintenance batches completed"),
		rollbacks:       r.CounterOf("xqview_round_rollbacks_total", "maintenance rounds rolled back"),
		restored:        r.CounterOf("xqview_rollback_restored_total", "draft node records discarded plus candidate extent copies abandoned by round rollbacks"),
		skipped:         r.CounterOf("xqview_views_skipped_total", "views skipped by the region-relevance filter"),
		merged:          r.CounterOf("deepunion_nodes_merged_total", "view nodes whose counts were merged"),
		inserted:        r.CounterOf("deepunion_subtrees_inserted_total", "delta subtrees attached to the extent"),
		removed:         r.CounterOf("deepunion_fragments_removed_total", "fragments disconnected at their root"),
		modified:        r.CounterOf("deepunion_values_modified_total", "in-place value replacements"),
		cacheHits:       r.CounterOf("xat_state_cache_hits_total", "base tables served from the cross-round state cache"),
		cacheMisses:     r.CounterOf("xat_state_cache_misses_total", "base-table derivations that missed the state cache"),
		cacheFolds:      r.CounterOf("xat_state_cache_folds_total", "cached base tables updated in place by folding a round's deltas"),
		sharedGroups:    r.CounterOf("xat_shared_prefix_groups_total", "shared sub-plan prefixes propagated (once each) per round"),
		sharedFanout:    r.CounterOf("xat_shared_prefix_fanout_total", "member subscriptions served from shared prefix propagations"),
		sharedHits:      r.CounterOf("xat_shared_prefix_hits_total", "per-view subtree propagations saved by sharing (fanout - groups)"),
		deltaRows:       r.CounterOf("xat_delta_rows_total", "delta update tree roots produced by propagation"),
		compactBatches:  r.CounterOf("update_compact_batches_total", "update batches shrunk by pre-validation compaction"),
		compactDropped:  r.CounterOf("update_compact_prims_dropped_total", dropped, "rule", "all"),
		compactCoalesce: r.CounterOf("update_compact_prims_dropped_total", dropped, "rule", "coalesce"),
		snapEpoch:       r.GaugeOf("xqview_snapshot_epoch", "sequence number of the version the last round published"),
		snapRetired:     r.GaugeOf("xqview_snapshot_retired", "retired versions not yet drained by readers, at the last round's publish"),
		snapReaders:     r.GaugeOf("xqview_snapshot_readers", "snapshot handles held by readers, at the last round's publish"),
		cacheEntries:    r.GaugeOf("xat_state_cache_entries", "base tables held by the state caches of the last committed round"),
	}
}

// add folds one sample into the registry. Phase latencies, the run counter
// and the gauges come from committed rounds only; the propagate and apply
// histograms observe the round's summed per-view work (PropagateNS,
// ApplyNS), one observation per round. An aborted round counts a rollback
// and what it restored; its count fields hold what ran before the failure
// (compaction) and are zero otherwise. Every compaction drop is a coalesce,
// the only rule CompactBatch has.
func (f *roundFold) add(s *RoundSample) {
	if s.Aborted {
		f.rollbacks.Inc()
		f.restored.Add(int64(s.RollbackRestored))
	} else {
		f.runs.Inc()
		f.validate.Observe(time.Duration(s.ValidateNS))
		f.propagate.Observe(time.Duration(s.PropagateNS))
		f.apply.Observe(time.Duration(s.ApplyNS))
		f.source.Observe(time.Duration(s.SourceNS))
		f.total.Observe(time.Duration(s.TotalNS))
		f.cacheEntries.Set(int64(s.CacheEntries))
		if s.SnapEpoch != 0 {
			f.snapEpoch.Set(s.SnapEpoch)
			f.snapRetired.Set(int64(s.SnapRetired))
			f.snapReaders.Set(int64(s.SnapReaders))
		}
	}
	f.skipped.Add(int64(s.Skipped))
	f.merged.Add(int64(s.Merged))
	f.inserted.Add(int64(s.Inserted))
	f.removed.Add(int64(s.Removed))
	f.modified.Add(int64(s.Modified))
	f.cacheHits.Add(int64(s.CacheHits))
	f.cacheMisses.Add(int64(s.CacheMisses))
	f.cacheFolds.Add(int64(s.CacheFolds))
	f.sharedGroups.Add(int64(s.SharedGroups))
	f.sharedFanout.Add(int64(s.SharedFanout))
	f.sharedHits.Add(int64(s.SharedHits))
	f.deltaRows.Add(int64(s.DeltaRoots))
	if d := int64(s.PrimsIn - s.PrimsOut); d > 0 {
		f.compactBatches.Inc()
		f.compactDropped.Add(d)
		f.compactCoalesce.Add(d)
	}
}

// Cap reports the ring capacity.
func (rs *RoundSeries) Cap() int { return len(rs.slots) }

// Total reports how many samples were ever appended (the round counter).
func (rs *RoundSeries) Total() uint64 { return rs.total.Load() }

// Append records one round sample, stamping its sequence number and
// completion time, and folds it into the series' registry. Callers gate on
// Enabled().
func (rs *RoundSeries) Append(s RoundSample) {
	rs.fold.add(&s)
	seq := rs.total.Add(1)
	s.Seq = seq
	if s.UnixNano == 0 {
		s.UnixNano = time.Now().UnixNano()
	}
	rs.slots[int((seq-1)%uint64(len(rs.slots)))].Store(&s)
}

// Snapshot returns the retained window, oldest first. Slots claimed by a
// writer that has not published yet are simply absent — the window is
// advisory telemetry, not a transaction log.
func (rs *RoundSeries) Snapshot() []RoundSample {
	total := rs.total.Load()
	if total == 0 {
		return nil
	}
	n := uint64(len(rs.slots))
	first := uint64(1)
	if total > n {
		first = total - n + 1
	}
	out := make([]RoundSample, 0, total-first+1)
	for seq := first; seq <= total; seq++ {
		p := rs.slots[int((seq-1)%n)].Load()
		// A slot may hold a newer sample than the one this position named at
		// load time (the ring lapped between reading total and here), an
		// older one only transiently (writer claimed but not yet published).
		// Keep whatever whole sample is there, in-window and in order.
		if p != nil && p.Seq >= first && p.Seq <= rs.total.Load() {
			if len(out) == 0 || p.Seq > out[len(out)-1].Seq {
				out = append(out, *p)
			}
		}
	}
	return out
}

// Last returns the most recent sample, if any.
func (rs *RoundSeries) Last() (RoundSample, bool) {
	w := rs.Snapshot()
	if len(w) == 0 {
		return RoundSample{}, false
	}
	return w[len(w)-1], true
}

// Reset drops all samples and restarts numbering. For tests and benchmark
// arms; not safe against concurrent appenders.
func (rs *RoundSeries) Reset() {
	for i := range rs.slots {
		rs.slots[i].Store(nil)
	}
	rs.total.Store(0)
}

// PhaseQuantiles is one phase's latency quantile triple, in seconds.
type PhaseQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	N   int64   `json:"count"`
}

// RoundsPayload is the /stats/rounds response: the windowed ring dump plus
// a cumulative snapshot (phase quantiles, drop counters, and whatever the
// mounting layer injects — journal occupancy, aborted rounds).
type RoundsPayload struct {
	Enabled     bool          `json:"enabled"`
	RoundsTotal uint64        `json:"rounds_total"`
	WindowCap   int           `json:"window_cap"`
	Window      []RoundSample `json:"window"`
	// Quantiles maps phase name (validate/propagate/apply/source/total) to
	// its cumulative latency quantiles from the registry histograms.
	Quantiles map[string]PhaseQuantiles `json:"quantiles"`
	// TraceDroppedEvents mirrors obs_trace_dropped_events: a non-zero value
	// means a saturated trace buffer silently discarded spans.
	TraceDroppedEvents int64 `json:"trace_dropped_events"`
	// Extras carries layer-injected context (the journal ring's occupancy
	// and recent aborted rounds, mounted by cmd/xqview).
	Extras map[string]any `json:"extras,omitempty"`
}

// histQuantiles reads one histogram's quantile triple.
func histQuantiles(h *Histogram) PhaseQuantiles {
	return PhaseQuantiles{
		P50: h.Quantile(0.50).Seconds(),
		P95: h.Quantile(0.95).Seconds(),
		P99: h.Quantile(0.99).Seconds(),
		N:   h.Count(),
	}
}

// ReadSeconds resolves the snapshot read-latency histogram in r. The
// recording sites (the serving command's HTTP read endpoints and reader
// pool) and the payload builder share this one registration, so the "read"
// quantile row always reflects what the readers actually observed.
func ReadSeconds(r *Registry) *Histogram {
	return r.HistogramOf("xqview_read_seconds", "snapshot read latency (acquire + serve + release)")
}

// BuildRoundsPayload assembles the /stats/rounds payload from a round series
// and the histograms it folds into. extras, when non-nil, is invoked per
// build so the payload reflects live occupancy.
func BuildRoundsPayload(rs *RoundSeries, extras func() map[string]any) RoundsPayload {
	window := rs.Snapshot()
	if window == nil {
		window = []RoundSample{}
	}
	p := RoundsPayload{
		Enabled:     Enabled(),
		RoundsTotal: rs.Total(),
		WindowCap:   rs.Cap(),
		Window:      window,
		Quantiles: map[string]PhaseQuantiles{
			"validate":  histQuantiles(rs.fold.validate),
			"propagate": histQuantiles(rs.fold.propagate),
			"apply":     histQuantiles(rs.fold.apply),
			"source":    histQuantiles(rs.fold.source),
			"total":     histQuantiles(rs.fold.total),
			"read":      histQuantiles(rs.fold.read),
		},
		TraceDroppedEvents: cTraceDropped.Value(),
	}
	if extras != nil {
		p.Extras = extras()
	}
	return p
}

// RoundsHandler serves the round-telemetry JSON (the /stats/rounds endpoint
// of the serving-mode observability handler). extras, when non-nil, injects
// higher-layer context into every response.
func RoundsHandler(rs *RoundSeries, extras func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(BuildRoundsPayload(rs, extras))
	})
}

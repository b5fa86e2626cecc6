package core

import (
	"testing"
	"time"

	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xat"
)

// TestRoundTelemetrySample checks the success-path recording site: an
// enabled maintenance round appends exactly one RoundSample whose fields
// reflect the round's actual work — phase times, batch sizes, view counts,
// deep-union traffic and cache deltas.
func TestRoundTelemetrySample(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	opt := Options{Parallelism: 2}
	if _, err := MaintainAll(s, views, prims, 0, opt); err != nil {
		t.Fatal(err)
	}
	if got := obs.Rounds.Total(); got != 1 {
		t.Fatalf("rounds recorded = %d, want 1", got)
	}
	sm, ok := obs.Rounds.Last()
	if !ok {
		t.Fatal("no sample retained")
	}
	if sm.Aborted {
		t.Fatal("committed round marked aborted")
	}
	if sm.Views != int32(len(views)) || sm.PrimsIn != int32(len(prims)) {
		t.Fatalf("views/prims = %d/%d, want %d/%d", sm.Views, sm.PrimsIn, len(views), len(prims))
	}
	if sm.PrimsOut <= 0 || sm.PrimsOut > sm.PrimsIn {
		t.Fatalf("prims_out = %d out of range (in=%d)", sm.PrimsOut, sm.PrimsIn)
	}
	if sm.TotalNS <= 0 || sm.ValidateNS < 0 || sm.PropagateNS <= 0 || sm.ApplyNS < 0 {
		t.Fatalf("phase times implausible: %+v", sm)
	}
	if sm.DeltaRoots <= 0 || sm.Inserted+sm.Merged+sm.Removed+sm.Modified <= 0 {
		t.Fatalf("round did no visible extent work: %+v", sm)
	}
	// First cached round derives every base table fresh.
	if sm.CacheMisses <= 0 || sm.CacheHits != 0 {
		t.Fatalf("first-round cache deltas = hits %d misses %d, want fresh derivations only",
			sm.CacheHits, sm.CacheMisses)
	}

	// A second round over the warmed cache must report hits as a per-round
	// delta, not a lifetime total.
	prims2, err := update.ParseAndEvaluate(s, `
for $entry in document("prices.xml")/prices/entry
where $entry/b-title = "TCP/IP Illustrated"
update $entry
replace $entry/price/text() with "71"
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaintainAll(s, views, prims2, 0, opt); err != nil {
		t.Fatal(err)
	}
	sm2, _ := obs.Rounds.Last()
	if sm2.Seq != 2 {
		t.Fatalf("second round seq = %d, want 2", sm2.Seq)
	}
	if sm2.CacheHits <= 0 {
		t.Fatalf("warmed round reported no cache hits: %+v", sm2)
	}
	if sm2.CacheMisses < 0 {
		t.Fatalf("cache delta went negative: %+v", sm2)
	}
}

// TestRoundTelemetryAborted checks the failure-path recording site: a round
// that rolls back still leaves a sample behind, marked aborted.
func TestRoundTelemetryAborted(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	for _, op := range views[2].Plan.Ops() {
		op.Kind = xat.OpKind(99)
	}
	if _, err := MaintainAll(s, views, prims, 0, Options{Parallelism: 1}); err == nil {
		t.Fatal("expected propagate failure")
	}
	sm, ok := obs.Rounds.Last()
	if !ok {
		t.Fatal("aborted round left no sample")
	}
	if !sm.Aborted || sm.Views != int32(len(views)) || sm.PrimsIn <= 0 {
		t.Fatalf("aborted sample = %+v", sm)
	}
}

// TestRoundTelemetryEval checks what a round does with the evaluation time
// its caller hands it: the sample carries it as EvalNS — on aborted rounds
// too — outside TotalNS, and the tracer shows it as a ParseEvaluate span on
// the round's track that ends where MaintainAll starts. A zero duration
// (primitives that came from no script) leaves no span.
func TestRoundTelemetryEval(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	tr := obs.NewTracer()
	time.Sleep(2 * time.Millisecond) // the span must fit between the tracer's start and the round's
	const eval = time.Millisecond
	stats, err := MaintainAll(s, views, prims, eval, Options{Parallelism: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	sm, _ := obs.Rounds.Last()
	if sm.EvalNS != eval.Nanoseconds() || sm.TotalNS != stats[0].Total.Nanoseconds() {
		t.Fatalf("eval_ns %d total_ns %d, want %d and the report's total %d", sm.EvalNS, sm.TotalNS, eval.Nanoseconds(), stats[0].Total.Nanoseconds())
	}
	var pe, round obs.Event
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "ParseEvaluate":
			pe = ev
		case "MaintainAll":
			if ev.Ph == "X" {
				round = ev
			}
		}
	}
	if pe.Ph != "X" || pe.TID != round.TID || pe.Dur != 1000 || pe.TS+pe.Dur-round.TS > 0.01 || round.TS-pe.TS-pe.Dur > 0.01 {
		t.Fatalf("ParseEvaluate span %+v is not a 1000 µs sibling ending where MaintainAll starts (%+v)", pe, round)
	}

	for _, op := range views[2].Plan.Ops() {
		op.Kind = xat.OpKind(99)
	}
	if _, err := MaintainAll(s, views, prims, eval, Options{Parallelism: 1}); err == nil {
		t.Fatal("expected propagate failure")
	}
	if sm, _ := obs.Rounds.Last(); !sm.Aborted || sm.EvalNS != eval.Nanoseconds() {
		t.Fatalf("aborted sample = %+v, want eval_ns %d", sm, eval.Nanoseconds())
	}
}

// TestRoundTelemetryDisabled pins the gate: with obs off a maintenance round
// must not touch the ring at all.
func TestRoundTelemetryDisabled(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(false))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	if _, err := MaintainAll(s, views, prims, 0); err != nil {
		t.Fatal(err)
	}
	if got := obs.Rounds.Total(); got != 0 {
		t.Fatalf("disabled round recorded %d samples, want 0", got)
	}
}

// TestRoundTelemetrySnapshotFields checks the MVCC columns of the round
// sample: a round committed through an epoch registry records the epoch it
// published, the store snapshot's overlay depth, and — with a reader handle
// held across the swap — the outstanding reader and retired-version counts.
func TestRoundTelemetrySnapshotFields(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	reg := NewSnapReg()
	reg.PublishFull(s, views)
	h := reg.Acquire() // pins the pre-round version across the swap
	defer h.Release()
	if _, err := MaintainAll(s, views, prims, 0, Options{Snapshots: reg}); err != nil {
		t.Fatal(err)
	}
	sm, ok := obs.Rounds.Last()
	if !ok {
		t.Fatal("no sample retained")
	}
	if sm.SnapEpoch != 2 {
		t.Fatalf("snap_epoch = %d, want 2 (full publish then one round)", sm.SnapEpoch)
	}
	if sm.SnapDepth < 1 {
		t.Fatalf("snap_depth = %d, want >= 1", sm.SnapDepth)
	}
	if sm.SnapReaders < 1 {
		t.Fatalf("snap_readers = %d, want the held handle counted", sm.SnapReaders)
	}
	if sm.SnapRetired != 1 {
		t.Fatalf("snap_retired = %d, want the pinned pre-round version", sm.SnapRetired)
	}
}

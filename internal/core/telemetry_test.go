package core

import (
	"math/rand"
	"testing"
	"time"

	"xqview/internal/faultinject"
	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// TestRoundTelemetrySample checks the success-path recording site: an
// enabled maintenance round appends exactly one RoundSample whose fields
// reflect the round's actual work — phase times, batch sizes, view counts,
// deep-union traffic and cache deltas.
func TestRoundTelemetrySample(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	set := mustSet(t, s, views)
	opt := Options{Parallelism: 2}
	if _, err := MaintainAll(set, prims, 0, opt); err != nil {
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
	if sm.ApplyBytes <= 0 {
		t.Fatalf("round changed the extent but reported no apply bytes: %+v", sm)
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
	if _, err := MaintainAll(set, prims2, 0, opt); err != nil {
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
// that rolls back still leaves a sample behind, marked aborted, whose phase
// fields hold the phases that ran — the failing one up to the failure — and
// the rollback, and sum to TotalNS. It fails a round at every fault site in
// turn, plus once from an operator with no delta rule.
func TestRoundTelemetryAborted(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	for _, op := range views[2].Plan.Ops() {
		op.Kind = xat.OpKind(99)
	}
	if _, err := MaintainAll(mustSet(t, s, views), prims, 0, Options{Parallelism: 1}); err == nil {
		t.Fatal("expected propagate failure")
	}
	sm, ok := obs.Rounds.Last()
	if !ok {
		t.Fatal("aborted round left no sample")
	}
	if !sm.Aborted || sm.Views != int32(len(views)) || sm.PrimsIn <= 0 {
		t.Fatalf("aborted sample = %+v", sm)
	}
	checkAbortedPhases(t, sm, phasePool)

	// The phase each fault site fails, on a batch every crash-arm view and
	// shared prefix reads: the pool's first dispatch is the shared phase's.
	failsIn := map[string]int{
		"validate.batch":        phaseValidate,
		"xat.propagate":         phaseShared,
		"xat.statecache.commit": phaseShared,
		"deepunion.apply":       phasePool,
		"deepunion.apply.prune": phasePool,
		"core.refresh":          phaseSource,
		"core.snapshot.build":   phaseSnapshot,
		"core.snapshot.swap":    phaseSnapshot,
	}
	for _, site := range FaultSites() {
		t.Run(site, func(t *testing.T) {
			defer faultinject.Reset()
			phase, ok := failsIn[site]
			if !ok {
				t.Fatalf("fault site %s has no expected phase", site)
			}
			rng := rand.New(rand.NewSource(0xAB0))
			a := newCrashArm(t, randomBib(rng, 6), randomPrices(rng, 5))
			root, _ := a.store.RootElem("bib.xml")
			batch := []*update.Primitive{{Kind: update.Insert, Doc: "bib.xml", Parent: root,
				Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1999"),
					xmldoc.Elem("title", xmldoc.TextF(titlesPool[0])))}}
			if err := faultinject.Arm(site, faultinject.ModeError, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := MaintainAll(a.set, batch, 0, a.opts()); err == nil {
				t.Fatalf("armed %s did not fail the round", site)
			}
			sm, _ := obs.Rounds.Last()
			if !sm.Aborted {
				t.Fatalf("sample not aborted: %+v", sm)
			}
			checkAbortedPhases(t, sm, phase)
		})
	}
}

// The round's phases in pipeline order, as indexes into phaseFields.
const (
	phaseCompact = iota
	phaseValidate
	phaseSource
	phaseShared
	phasePool
	phaseSnapshot
	phaseCommit
)

// phaseFields lists a sample's phase fields in pipeline order, rollback
// last; together they partition TotalNS.
func phaseFields(s obs.RoundSample) []int64 {
	return []int64{s.CompactNS, s.ValidateNS, s.SourceNS, s.SharedNS, s.PoolNS, s.SnapshotNS, s.CommitNS, s.RollbackNS}
}

// checkPhaseSum asserts the sample's phase fields add up to TotalNS exactly.
func checkPhaseSum(t *testing.T, s obs.RoundSample) {
	t.Helper()
	var sum int64
	for _, ns := range phaseFields(s) {
		sum += ns
	}
	if sum != s.TotalNS {
		t.Fatalf("phases sum to %d ns, total_ns is %d: %+v", sum, s.TotalNS, s)
	}
}

// checkAbortedPhases asserts an aborted sample's shape for a round that
// failed in phase failed: every phase up to it and the rollback non-zero,
// every later phase zero, and the sum exactly TotalNS.
func checkAbortedPhases(t *testing.T, s obs.RoundSample, failed int) {
	t.Helper()
	checkPhaseSum(t, s)
	fields := phaseFields(s)
	for i, ns := range fields[:phaseCommit+1] {
		if (i <= failed) != (ns > 0) {
			t.Fatalf("phase %d = %d ns in a round that failed in phase %d: %+v", i, ns, failed, s)
		}
	}
	if s.RollbackNS <= 0 {
		t.Fatalf("aborted sample has no rollback time: %+v", s)
	}
}

// TestRoundPhasesSumToTotal holds every committed round of the randomized
// oracle's five families to the partition: the phase fields of its sample
// add up to TotalNS exactly, and TotalNS is the round's MaintStats.Total.
func TestRoundPhasesSumToTotal(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	for _, fam := range roundFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(fam.seed))
			store, views := newArm(t, randomBib(rng, 6), randomPrices(rng, 5), fam.queries)
			reg := NewSnapReg()
			reg.PublishLive(store, views)
			set := mustSet(t, store, views)
			opts := Options{Snapshots: reg}
			for round := 0; round < 8; round++ {
				var prims []*update.Primitive
				if fam.dupReplace {
					prims = dupReplaceBatch(t, rng, store)
				} else if prims = randomBatch(t, rng, store, 1+rng.Intn(3)); !conflictFree(prims) {
					continue
				}
				obs.Rounds.Reset()
				stats, err := MaintainAll(set, prims, 0, opts)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				sm, ok := obs.Rounds.Last()
				if !ok || sm.Aborted {
					t.Fatalf("round %d: sample %+v", round, sm)
				}
				checkPhaseSum(t, sm)
				if sm.TotalNS != stats[0].Total.Nanoseconds() || sm.ValidateNS != stats[0].Validate.Nanoseconds() ||
					sm.SourceNS != stats[0].Source.Nanoseconds() {
					t.Fatalf("round %d: sample %+v disagrees with report %+v", round, sm, *stats[0])
				}
				if sm.PoolNS <= 0 || sm.SnapshotNS <= 0 || sm.CommitNS <= 0 || sm.RollbackNS != 0 {
					t.Fatalf("round %d: phase fields %+v", round, sm)
				}
			}
		})
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
	stats, err := MaintainAll(mustSet(t, s, views), prims, eval, Options{Parallelism: 1, Tracer: tr})
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
	if _, err := MaintainAll(mustSet(t, s, views), prims, eval, Options{Parallelism: 1}); err == nil {
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
	if _, err := MaintainAll(mustSet(t, s, views), prims, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Rounds.Total(); got != 0 {
		t.Fatalf("disabled round recorded %d samples, want 0", got)
	}
}

// TestRoundTelemetrySnapshotFields checks the MVCC columns of the round
// sample: a round committed through an epoch registry records the epoch it
// published — a version whose store is the live store's new root, so its
// overlay depth is 0 — and, with a reader handle held across the swap, the
// outstanding reader count; the retired count reads 0, since the collector,
// not a list, reclaims swapped-out versions. The reader count is kept
// whatever the telemetry switch, so a handle acquired while telemetry was
// off and released after it was switched on leaves no reader behind.
func TestRoundTelemetrySnapshotFields(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	s, views, prims := obsFixture(t)
	reg := NewSnapReg()
	reg.PublishLive(s, views)
	h := reg.Acquire() // pins the pre-round version across the swap
	if _, err := MaintainAll(mustSet(t, s, views), prims, 0, Options{Snapshots: reg}); err != nil {
		t.Fatal(err)
	}
	sm, ok := obs.Rounds.Last()
	if !ok {
		t.Fatal("no sample retained")
	}
	if sm.SnapEpoch != 2 {
		t.Fatalf("snap_epoch = %d, want 2 (full publish then one round)", sm.SnapEpoch)
	}
	if reg.Current().Store != s.Snap || sm.SnapDepth != 0 {
		t.Fatalf("published a store other than the live root (snap_depth = %d)", sm.SnapDepth)
	}
	if sm.SnapReaders != 1 {
		t.Fatalf("snap_readers = %d, want the held handle counted", sm.SnapReaders)
	}
	if sm.SnapRetired != 0 {
		t.Fatalf("snap_retired = %d, want 0", sm.SnapRetired)
	}

	obs.SetEnabled(false)
	h2 := reg.Acquire()
	obs.SetEnabled(true)
	h2.Release()
	h.Release()
	prims2, err := update.ParseAndEvaluate(s, `
for $entry in document("prices.xml")/prices/entry
where $entry/b-title = "TCP/IP Illustrated"
update $entry
replace $entry/price/text() with "71"
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaintainAll(mustSet(t, s, views), prims2, 0, Options{Snapshots: reg}); err != nil {
		t.Fatal(err)
	}
	if sm, _ = obs.Rounds.Last(); sm.SnapReaders != 0 {
		t.Fatalf("snap_readers = %d after every handle was released, want 0", sm.SnapReaders)
	}
}

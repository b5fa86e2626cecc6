package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqview/internal/faultinject"
	"xqview/internal/journal"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// The transactional-round contract under test: a maintenance round that
// fails at ANY fault point — error or panic, in any phase — must leave the
// store, every view extent and every propagation state cache byte-identical
// to the pre-round state, and a retry of the same batch must succeed and
// match a fault-free twin exactly.

// crashArm is one independent store+views fixture for lockstep comparison.
// Each arm carries its own MVCC epoch registry, so the fault sweeps cover
// the snapshot-build and pointer-swap boundaries of the commit path and the
// reader-side invariants can be asserted against in-flight handles.
type crashArm struct {
	store *xmldoc.Store
	views []*View
	set   *ViewSet
	reg   *SnapReg
}

// opts returns the arm's maintenance options: the shared crashOpts plus
// this arm's own epoch registry.
func (a *crashArm) opts() Options {
	o := crashOpts
	o.Snapshots = a.reg
	return o
}

var crashQueries = []string{
	`<result>{ for $b in doc("bib.xml")/bib/book where $b/@year > 1995 return <old>{$b/title}</old> }</result>`,
	`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
	`<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <pair>{$b/title} {$e/price}</pair> }</result>`,
}

func newCrashArm(t *testing.T, bibXML, pricesXML string) *crashArm {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	a := &crashArm{store: s, reg: NewSnapReg()}
	for _, q := range crashQueries {
		v, err := NewView(s, q)
		if err != nil {
			t.Fatal(err)
		}
		a.views = append(a.views, v)
	}
	a.set = mustSet(t, s, a.views)
	a.reg.PublishLive(a.store, a.views)
	return a
}

// readerFrame captures everything an in-flight reader handle serves: the
// store snapshot's dump and every view frame's serialization. A handle's
// frame must stay byte-identical for as long as the handle is held, no
// matter what rounds commit or abort behind it.
func readerFrame(v *Version) string {
	var b strings.Builder
	b.WriteString(v.Store.DebugDump())
	for i := range v.Frames {
		b.WriteString(v.Frames[i].XML())
	}
	return b.String()
}

// snapshot captures everything the rollback contract promises to restore.
type crashSnapshot struct {
	store   string
	extents []string
	caches  []string
}

func (a *crashArm) snapshot() crashSnapshot {
	s := crashSnapshot{store: a.store.DebugDump()}
	for _, v := range a.views {
		var b strings.Builder
		for _, r := range v.Extent {
			b.WriteString(r.Dump())
		}
		s.extents = append(s.extents, b.String())
		s.caches = append(s.caches, v.cache.Fingerprint())
	}
	return s
}

func (s crashSnapshot) diff(o crashSnapshot) string {
	if s.store != o.store {
		return fmt.Sprintf("store diverged:\n--- a ---\n%s--- b ---\n%s", s.store, o.store)
	}
	for i := range s.extents {
		if s.extents[i] != o.extents[i] {
			return fmt.Sprintf("extent of view %d diverged:\n--- a ---\n%s--- b ---\n%s", i, s.extents[i], o.extents[i])
		}
		if s.caches[i] != o.caches[i] {
			return fmt.Sprintf("state cache of view %d diverged:\n--- a ---\n%s--- b ---\n%s", i, s.caches[i], o.caches[i])
		}
	}
	return ""
}

var crashOpts = Options{Parallelism: 4}

// TestCrashConsistencyEverySite injects a fault — first as an error, then as
// a panic — at every registered fault point in turn and asserts the
// transactional contract against a fault-free twin.
func TestCrashConsistencyEverySite(t *testing.T) {
	sites := FaultSites()
	if len(sites) < 7 {
		t.Fatalf("expected the pipeline to register >=7 fault sites, have %v", sites)
	}
	for _, site := range sites {
		for _, mode := range []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic} {
			t.Run(site+"/"+mode.String(), func(t *testing.T) {
				defer faultinject.Reset()
				rng := rand.New(rand.NewSource(0xC0FFEE))
				bib, prices := randomBib(rng, 6), randomPrices(rng, 5)
				a := newCrashArm(t, bib, prices) // faulted arm
				b := newCrashArm(t, bib, prices) // fault-free twin
				warm := randomBatch(t, rng, a.store, 2)
				if _, err := MaintainAll(a.set, deepClonePrims(warm), 0, a.opts()); err != nil {
					t.Fatalf("warmup: %v", err)
				}
				if _, err := MaintainAll(b.set, deepClonePrims(warm), 0, b.opts()); err != nil {
					t.Fatalf("twin warmup: %v", err)
				}
				pre := a.snapshot()
				prims := randomBatch(t, rng, a.store, 3)
				primsA, primsB := deepClonePrims(prims), deepClonePrims(prims)

				// An in-flight reader acquired before the faulted round: it
				// must keep serving exactly its version's bytes throughout
				// the abort, and the abort must not advance the epoch.
				h := a.reg.Acquire()
				if h == nil {
					t.Fatal("no version published before the faulted round")
				}
				hFrame := readerFrame(h)
				preEpoch := a.reg.Epoch()

				if err := faultinject.Arm(site, mode, 1); err != nil {
					t.Fatal(err)
				}
				stats, err := MaintainAll(a.set, primsA, 0, a.opts())
				if err == nil {
					t.Fatalf("armed %s did not fail the round", site)
				}
				if stats != nil {
					t.Fatal("failed round returned stats")
				}
				if !faultinject.Fired(site) {
					t.Fatalf("round failed but site %s never fired: %v", site, err)
				}
				var f *faultinject.Fault
				if mode == faultinject.ModeError && !errors.As(err, &f) {
					t.Fatalf("injected error not traceable to the fault: %v", err)
				}
				if d := pre.diff(a.snapshot()); d != "" {
					t.Fatalf("rollback after %s (%s) not byte-identical to pre-round state: %s", site, mode, d)
				}
				if got := a.reg.Epoch(); got != preEpoch {
					t.Fatalf("aborted round advanced the epoch: %d -> %d", preEpoch, got)
				}
				if got := readerFrame(h); got != hFrame {
					t.Fatalf("in-flight reader's frame changed across the abort at %s (%s)", site, mode)
				}

				// The one-shot point has disarmed itself: the retry must
				// succeed and land byte-identical to the fault-free twin.
				if _, err := MaintainAll(a.set, primsA, 0, a.opts()); err != nil {
					t.Fatalf("retry after %s: %v", site, err)
				}
				if _, err := MaintainAll(b.set, primsB, 0, b.opts()); err != nil {
					t.Fatalf("twin round: %v", err)
				}
				if d := a.snapshot().diff(b.snapshot()); d != "" {
					t.Fatalf("retried round diverged from fault-free twin: %s", d)
				}
				if got := a.reg.Epoch(); got <= preEpoch {
					t.Fatalf("committed retry did not advance the epoch: %d -> %d", preEpoch, got)
				}
				// The reader's handle still serves its original frame even
				// after a later round committed past it; only Release lets
				// the version drain.
				if got := readerFrame(h); got != hFrame {
					t.Fatalf("reader's frame changed after a later commit at %s (%s)", site, mode)
				}
				h.Release()
				if n := a.reg.readers.Load(); n != 0 {
					t.Fatalf("released reader left the reader count at %d", n)
				}
			})
		}
	}
}

// TestCrashConsistencySeededSweep runs N seeded rounds where the fault point,
// mode and hit count are all derived from the seed (hits up to 3 land faults
// mid-phase: the 2nd refresh primitive, the 3rd view's apply, ...).
func TestCrashConsistencySeededSweep(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(0x5EED))
	bib, prices := randomBib(rng, 6), randomPrices(rng, 5)
	a := newCrashArm(t, bib, prices)
	b := newCrashArm(t, bib, prices)
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for seed := 0; seed < rounds; seed++ {
		prims := randomBatch(t, rng, a.store, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		primsA, primsB := deepClonePrims(prims), deepClonePrims(prims)
		pre := a.snapshot()
		site, mode, hit, err := faultinject.ArmFromSeed(int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		_, merr := MaintainAll(a.set, primsA, 0, a.opts())
		fired := faultinject.Fired(site)
		faultinject.Reset()
		if fired {
			if merr == nil {
				t.Fatalf("seed %d: %s fired but round succeeded", seed, site)
			}
			if d := pre.diff(a.snapshot()); d != "" {
				t.Fatalf("seed %d (%s %s hit=%d): rollback not byte-identical: %s", seed, site, mode, hit, d)
			}
			if _, err := MaintainAll(a.set, primsA, 0, a.opts()); err != nil {
				t.Fatalf("seed %d retry: %v", seed, err)
			}
		} else {
			// The hit count exceeded the site's traffic this round (e.g. the
			// 3rd hit of a once-per-round site): the round must have
			// committed normally.
			if merr != nil {
				t.Fatalf("seed %d: site %s never fired but round failed: %v", seed, site, merr)
			}
		}
		if _, err := MaintainAll(b.set, primsB, 0, b.opts()); err != nil {
			t.Fatalf("seed %d twin: %v", seed, err)
		}
		if d := a.snapshot().diff(b.snapshot()); d != "" {
			t.Fatalf("seed %d: faulted arm diverged from twin: %s", seed, d)
		}
	}
}

// TestPoolPanicRecovery drives a panic into one view's apply phase under a
// parallel pool: the round must fail with an error naming a view (not crash
// the process or the sibling workers), roll back, and a retry must succeed.
func TestPoolPanicRecovery(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(0xFA11))
	a := newCrashArm(t, randomBib(rng, 6), randomPrices(rng, 5))
	pre := a.snapshot()
	prims := randomBatch(t, rng, a.store, 2)
	if err := faultinject.Arm("deepunion.apply", faultinject.ModePanic, 1); err != nil {
		t.Fatal(err)
	}
	_, err := MaintainAll(a.set, prims, 0, Options{Parallelism: len(a.views)})
	if err == nil {
		t.Fatal("panicking apply did not fail the round")
	}
	if !strings.Contains(err.Error(), `maintain view "`) || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic not converted to a named per-view error: %v", err)
	}
	if d := pre.diff(a.snapshot()); d != "" {
		t.Fatalf("sibling state damaged by panicking worker: %s", d)
	}
	if _, err := MaintainAll(a.set, prims, 0, Options{Parallelism: len(a.views)}); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// TestAbortedRoundJournal asserts the journal's view of a rolled-back round:
// prior rounds stay untouched, the failed round lands exactly once with
// Aborted set and the error recorded, and Explain refuses to source lineage
// from it.
func TestAbortedRoundJournal(t *testing.T) {
	defer faultinject.Reset()
	defer journal.SetEnabled(journal.SetEnabled(false))
	journal.Default.Reset()
	defer journal.Default.Reset()
	journal.SetEnabled(true)

	rng := rand.New(rand.NewSource(0x70AD))
	a := newCrashArm(t, randomBib(rng, 4), randomPrices(rng, 3))
	warm := randomBatch(t, rng, a.store, 1)
	if _, err := MaintainAll(a.set, warm, 0, a.opts()); err != nil {
		t.Fatal(err)
	}
	before := journal.Default.Rounds()

	// Fail after propagation, building the snapshot, so the aborted round
	// carries full lineage records.
	bibRoot, _ := a.store.RootElem("bib.xml")
	frag := xmldoc.Elem("book",
		xmldoc.AttrF("year", "1999"),
		xmldoc.Elem("title", xmldoc.TextF("Aborted Insert")))
	prims := []*update.Primitive{{Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot, Frag: frag}}
	if err := faultinject.Arm("core.snapshot.build", faultinject.ModeError, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MaintainAll(a.set, prims, 0, a.opts()); err == nil {
		t.Fatal("armed snapshot build did not fail the round")
	}

	rounds := journal.Default.Rounds()
	if len(rounds) != len(before)+1 {
		t.Fatalf("rounds: %d, want %d", len(rounds), len(before)+1)
	}
	for i, r := range before {
		if rounds[i].ID != r.ID || rounds[i].Aborted != r.Aborted {
			t.Fatalf("prior round %d changed", i)
		}
	}
	last := rounds[len(rounds)-1]
	if !last.Aborted || last.Error == "" {
		t.Fatalf("failed round not marked aborted: aborted=%v error=%q", last.Aborted, last.Error)
	}

	// Explain must not present the aborted round's lineage as live
	// provenance: the inserted key exists only in the aborted round.
	insKey := string(prims[0].Key)
	if insKey == "" {
		t.Fatal("validation did not assign the insert key")
	}
	text, err := journal.Default.Explain("view-1", insKey)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(text, "aborted") || !strings.Contains(text, "rolled back") {
		t.Fatalf("explain presented aborted lineage as live:\n%s", text)
	}

	// After a successful retry the same key has committed lineage again.
	if _, err := MaintainAll(a.set, prims, 0, a.opts()); err != nil {
		t.Fatalf("retry: %v", err)
	}
	text, err = journal.Default.Explain("view-1", insKey)
	if err != nil {
		t.Fatalf("explain after retry: %v", err)
	}
	if !strings.Contains(text, "journaled lineage") {
		t.Fatalf("retried round's lineage missing:\n%s", text)
	}
}

// TestRetriedRoundCacheStats: a round aborted in apply and retried leaves
// every view's lifetime cache counters where a fault-free twin's are. The
// aborted round's lookups ran, but its hits and misses are staged with the
// rest of its cache work and dropped by the rollback.
func TestRetriedRoundCacheStats(t *testing.T) {
	defer faultinject.Reset()
	s, views, prims := obsFixture(t)
	ts, twins, tprims := obsFixture(t)
	if err := faultinject.Arm("deepunion.apply", faultinject.ModeError, 1); err != nil {
		t.Fatal(err)
	}
	set := mustSet(t, s, views)
	if _, err := MaintainAll(set, prims, 0, Options{}); err == nil {
		t.Fatal("round with an armed apply fault committed")
	}
	faultinject.Reset()
	if _, err := MaintainAll(set, prims, 0, Options{}); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if _, err := MaintainAll(mustSet(t, ts, twins), tprims, 0, Options{}); err != nil {
		t.Fatalf("twin: %v", err)
	}
	for i := range views {
		if got, want := views[i].CacheStats(), twins[i].CacheStats(); got != want {
			t.Errorf("view %d: retried cache stats %+v, fault-free twin %+v", i, got, want)
		}
	}
}

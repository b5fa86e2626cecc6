package xat

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"xqview/internal/flexkey"
)

// Fold-layer unit tests: cacheEntry.fold implements the counting solution
// over cached base tables, and Prepare decides keep / fold / evict per entry
// from the round's update regions. These tests pin the exact semantics the
// end-to-end differential tests in internal/core rely on.

func nodeTuple(k string, count int) *Tuple {
	return &Tuple{Cells: []Cell{{NodeItem(flexkey.Key(k), 1)}}, Count: count}
}

func deltaTuple(k string, count int) *Tuple {
	tp := nodeTuple(k, count)
	tp.Kind = Delta
	tp.Region = &Region{Mode: RegionInsert, Anchor: flexkey.Key(k)}
	return tp
}

// patchTuple is a copy of tp marked as a patch of a region in mode.
func patchTuple(tp *Tuple, mode RegionMode, anchor string) *Tuple {
	cp := *tp
	cp.Kind = Patch
	cp.Region = &Region{Mode: mode, Anchor: flexkey.Key(anchor)}
	return &cp
}

func tableOf(tuples ...*Tuple) *Table {
	t := NewTable("c")
	t.Tuples = tuples
	return t
}

// entryOf wraps a table as a cache entry with its identities computed.
func entryOf(t *Table) *cacheEntry {
	return &cacheEntry{tbl: t, ids: tableIdentities(t)}
}

// foldTable folds delta into a fresh entry over base, with no modified
// value nodes and no arena promotion; ok is false when the fold evicts.
func foldTable(base, delta *Table) (*Table, bool) {
	ne, _ := entryOf(base).fold(delta, nil)
	if ne == nil {
		return nil, false
	}
	return ne.tbl, true
}

// counts flattens a table to identity→count for assertions.
func counts(t *Table) map[string]int {
	m := map[string]int{}
	for _, tp := range t.Tuples {
		m[tupleIdentity(tp)] += tp.Count
	}
	return m
}

func TestFoldTableInsertAndAppend(t *testing.T) {
	base := tableOf(nodeTuple("b", 2), nodeTuple("b.d", 1))
	delta := tableOf(deltaTuple("b", 1), deltaTuple("b.f", 2))
	out, ok := foldTable(base, delta)
	if !ok {
		t.Fatal("fold failed on a pure insert delta")
	}
	got := counts(out)
	want := map[string]int{
		tupleIdentity(nodeTuple("b", 1)):   3,
		tupleIdentity(nodeTuple("b.d", 1)): 1,
		tupleIdentity(nodeTuple("b.f", 1)): 2,
	}
	for id, c := range want {
		if got[id] != c {
			t.Errorf("identity %q: count %d, want %d", id, got[id], c)
		}
	}
	// Appended tuples must read as plain base tuples for the next round: no
	// Delta kind, no region.
	for _, tp := range out.Tuples {
		if tp.Kind != Normal || tp.Region != nil {
			t.Errorf("folded tuple %q kept delta marking: kind=%v region=%v",
				tupleIdentity(tp), tp.Kind, tp.Region)
		}
	}
}

func TestFoldTableRetractToZeroDrops(t *testing.T) {
	base := tableOf(nodeTuple("b", 2), nodeTuple("b.d", 1))
	delta := tableOf(deltaTuple("b.d", -1))
	out, ok := foldTable(base, delta)
	if !ok {
		t.Fatal("fold failed on a clean retraction")
	}
	if len(out.Tuples) != 1 || tupleIdentity(out.Tuples[0]) != tupleIdentity(nodeTuple("b", 1)) {
		t.Fatalf("retract-to-zero left %d tuples: %v", len(out.Tuples), counts(out))
	}
}

func TestFoldTableRetractionMissFails(t *testing.T) {
	base := tableOf(nodeTuple("b", 1))
	if _, ok := foldTable(base, tableOf(deltaTuple("zz", -1))); ok {
		t.Error("retraction of an identity the base never held must fail the fold")
	}
}

func TestFoldTableNegativeCountFails(t *testing.T) {
	base := tableOf(nodeTuple("b", 1))
	if _, ok := foldTable(base, tableOf(deltaTuple("b", -2))); ok {
		t.Error("a count driven below zero must fail the fold")
	}
}

// textTuple is a tuple holding one text() value item, as navigation over
// price/text() produces it.
func textTuple(k, val string) *Tuple {
	return &Tuple{Cells: []Cell{{NodeItem("b", 0)}, {{ID: BaseID(flexkey.Key(k)), Val: val, IsVal: true}}}, Count: 1}
}

func TestFoldTableModifyPatchOfHeldTupleFolds(t *testing.T) {
	base := tableOf(nodeTuple("b", 1), nodeTuple("b.d", 2))
	ne, _ := entryOf(base).fold(tableOf(patchTuple(nodeTuple("b.d", 0), RegionModify, "b.d.f")), nil)
	if ne == nil {
		t.Fatal("a modify patch of a held tuple must fold")
	}
	if len(ne.tbl.Tuples) != 2 || ne.tbl.Tuples[0] != base.Tuples[0] || ne.tbl.Tuples[1] != base.Tuples[1] {
		t.Errorf("modify patch changed the table: %v", counts(ne.tbl))
	}
}

func TestFoldTableInsertDeletePatchEvicts(t *testing.T) {
	for _, mode := range []RegionMode{RegionInsert, RegionDelete} {
		base := tableOf(nodeTuple("b", 1))
		ne, cause := entryOf(base).fold(tableOf(patchTuple(nodeTuple("b", 0), mode, "b.d")), nil)
		if ne != nil || cause != evictPatch {
			t.Errorf("mode %d patch: entry kept=%v cause=%s, want evicted as patch", mode, ne != nil, evictCauseNames[cause])
		}
	}
}

func TestFoldTableModifyPatchUnheldEvicts(t *testing.T) {
	base := tableOf(nodeTuple("b", 1))
	ne, cause := entryOf(base).fold(tableOf(patchTuple(nodeTuple("zz", 0), RegionModify, "zz.d")), nil)
	if ne != nil || cause != evictUnheld {
		t.Errorf("unheld modify patch: entry kept=%v cause=%s, want evicted as unheld", ne != nil, evictCauseNames[cause])
	}
}

// A modify patch whose text() value item carries the new value names an
// identity the entry does not hold (the held tuple has the old value).
func TestFoldTableModifyPatchNewValueEvicts(t *testing.T) {
	base := tableOf(textTuple("b.p.t", "10"))
	patch := patchTuple(textTuple("b.p.t", "12"), RegionModify, "b.p.t")
	ne, cause := entryOf(base).fold(tableOf(patch), nil)
	if ne != nil || cause != evictUnheld {
		t.Errorf("new-value modify patch: entry kept=%v cause=%s, want evicted as unheld", ne != nil, evictCauseNames[cause])
	}
}

// Propagation reads a modify patch from the pre-update store, so its value
// item may carry the old value and match the held tuple; the round's
// modified set still evicts it, since folding would keep the stale value.
func TestFoldTableModifiedValueItemEvicts(t *testing.T) {
	base := tableOf(textTuple("b.p.t", "10"))
	patch := patchTuple(textTuple("b.p.t", "10"), RegionModify, "b.p.t")
	modified := map[flexkey.Key]bool{"b.p.t": true}
	ne, cause := entryOf(base).fold(tableOf(patch), modified)
	if ne != nil || cause != evictValue {
		t.Errorf("modified value item: entry kept=%v cause=%s, want evicted as value", ne != nil, evictCauseNames[cause])
	}
	if ne, _ := entryOf(base).fold(tableOf(patch), nil); ne == nil {
		t.Error("an unmodified value item must not evict")
	}
}

// TestFoldIdentitiesStayAligned folds a random sequence of deltas and checks
// after each that every stored identity still names its tuple.
func TestFoldIdentitiesStayAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	e := entryOf(tableOf(nodeTuple("a", 1), nodeTuple("b", 2)))
	live := map[string]int{"a": 1, "b": 2}
	for round := 0; round < 200; round++ {
		var tuples []*Tuple
		held := maps.Clone(live) // a modify patch names a tuple held before the round
		for n := rng.Intn(4); n >= 0; n-- {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				tuples = append(tuples, deltaTuple(k, 1+rng.Intn(2)))
				live[k] += tuples[len(tuples)-1].Count
			case 1:
				if live[k] > 0 {
					tuples = append(tuples, deltaTuple(k, -1))
					live[k]--
				}
			case 2:
				if held[k] > 0 {
					tuples = append(tuples, patchTuple(nodeTuple(k, 0), RegionModify, k+".t"))
				}
			}
		}
		ne, cause := e.fold(tableOf(tuples...), nil)
		if ne == nil {
			t.Fatalf("round %d: fold evicted (%s)", round, evictCauseNames[cause])
		}
		e = ne
		if len(e.ids) != len(e.tbl.Tuples) {
			t.Fatalf("round %d: %d ids for %d tuples", round, len(e.ids), len(e.tbl.Tuples))
		}
		for i, tp := range e.tbl.Tuples {
			if e.ids[i] != tupleIdentity(tp) {
				t.Fatalf("round %d: ids[%d]=%q, tuple identity %q", round, i, e.ids[i], tupleIdentity(tp))
			}
		}
		for _, k := range keys {
			if got := counts(e.tbl)[tupleIdentity(nodeTuple(k, 1))]; got != live[k] {
				t.Fatalf("round %d: %s count %d, want %d", round, k, got, live[k])
			}
		}
	}
}

// TestFoldAllocsIndependentOfTableSize pins the fold's cost to its delta:
// folding a 1-tuple delta allocates as many objects into a 10k-tuple entry
// as into a 1k-tuple one.
func TestFoldAllocsIndependentOfTableSize(t *testing.T) {
	allocs := func(n int) float64 {
		tuples := make([]*Tuple, n)
		for i := range tuples {
			tuples[i] = nodeTuple(fmt.Sprintf("b.%05d", i), 1)
		}
		e := entryOf(tableOf(tuples...))
		delta := tableOf(deltaTuple("b.00003", 1))
		return testing.AllocsPerRun(20, func() {
			if ne, _ := e.fold(delta, nil); ne == nil {
				t.Fatal("fold evicted")
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Errorf("fold allocs grow with the table: %v at 1k tuples, %v at 10k", small, large)
	}
}

func TestFoldTableConstructedItemFails(t *testing.T) {
	base := tableOf(nodeTuple("b", 1))
	tp := &Tuple{
		Cells: []Cell{{Item{ID: ID{Constructed: true, Body: "c1"}, Count: 1}}},
		Count: 1, Kind: Delta,
	}
	if _, ok := foldTable(base, tableOf(tp)); ok {
		t.Error("constructed content must fail the fold (skeleton identities are per-round)")
	}
}

func TestFoldTableDoesNotMutateInputs(t *testing.T) {
	shared := nodeTuple("b", 2) // simulates a *Tuple shared across operators
	base := tableOf(shared, nodeTuple("b.d", 1))
	delta := tableOf(deltaTuple("b", 3), deltaTuple("b.d", -1))
	out, ok := foldTable(base, delta)
	if !ok {
		t.Fatal("fold failed")
	}
	if shared.Count != 2 {
		t.Errorf("fold wrote through a shared base tuple: count %d", shared.Count)
	}
	if len(base.Tuples) != 2 || base.Tuples[0] != shared {
		t.Error("fold mutated the base table's tuple slice")
	}
	if delta.Tuples[0].Count != 3 || delta.Tuples[1].Count != -1 {
		t.Error("fold mutated the delta table")
	}
	for _, tp := range out.Tuples {
		if tp == shared {
			t.Error("changed-count tuple aliased into the output; must be a copy")
		}
	}
}

func TestFoldTableEmptyDeltaIsIdentity(t *testing.T) {
	base := tableOf(nodeTuple("b", 1))
	if out, ok := foldTable(base, nil); !ok || out != base {
		t.Error("nil delta must return the base table unchanged")
	}
	if out, ok := foldTable(base, NewTable("c")); !ok || out != base {
		t.Error("empty delta must return the base table unchanged")
	}
}

// commit runs the cache's two-step commit, Prepare then Install.
func commit(t *testing.T, c *StateCache, regions map[string][]*Region) {
	t.Helper()
	p, err := c.Prepare(regions)
	if err != nil {
		t.Fatal(err)
	}
	c.Install(p)
}

// TestStateCacheCommitRegions drives a cache holding two entries over
// different documents through a commit whose regions touch only one of
// them: the untouched entry is kept verbatim, the touched one folds, and an
// unfoldable touched entry is evicted.
func TestStateCacheCommitRegions(t *testing.T) {
	bibOp := &Op{ID: 1, Kind: OpSource, Doc: "bib.xml"}
	priOp := &Op{ID: 2, Kind: OpSource, Doc: "prices.xml"}

	c := NewStateCache()
	c.begin()
	bibTbl := tableOf(nodeTuple("b", 1))
	priTbl := tableOf(nodeTuple("p", 1))
	c.noteFresh(bibOp, bibTbl)
	c.noteFresh(priOp, priTbl)
	commit(t, c, nil) // no regions: both entries admitted untouched
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	// Prepare copied the staged table out; the copy is what later rounds
	// must keep.
	heldPri, _ := c.lookup(priOp)

	// Round 2: a bib-only region with a foldable delta for the bib entry.
	c.begin()
	c.noteDelta(bibOp, tableOf(deltaTuple("b.d", 1)))
	commit(t, c, map[string][]*Region{
		"bib.xml": {{Mode: RegionInsert, Anchor: "b.d"}},
	})
	st := c.Stats()
	if st.Folds != 1 || st.Evictions != 0 {
		t.Errorf("bib-only fold round: folds=%d evictions=%d, want 1/0", st.Folds, st.Evictions)
	}
	if tbl, ok := c.lookup(priOp); !ok || tbl != heldPri {
		t.Error("untouched prices entry was not kept verbatim")
	}
	if tbl, ok := c.lookup(bibOp); !ok || len(tbl.Tuples) != 2 {
		t.Error("bib entry did not fold the round's delta in")
	}

	// Round 3: a prices region whose delta retracts something never held —
	// the prices entry must be evicted, the bib entry untouched.
	c.begin()
	c.noteDelta(priOp, tableOf(deltaTuple("zz", -1)))
	commit(t, c, map[string][]*Region{
		"prices.xml": {{Mode: RegionDelete, Anchor: "p"}},
	})
	if _, ok := c.lookup(priOp); ok {
		t.Error("unfoldable prices entry survived the commit")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions=%d, want 1", st.Evictions)
	}
	if _, ok := c.lookup(bibOp); !ok {
		t.Error("bib entry lost on a prices-only round")
	}
}

// TestStateCacheRejectsConstructed ensures noteFresh never admits tables
// holding constructed nodes.
func TestStateCacheRejectsConstructed(t *testing.T) {
	op := &Op{ID: 3, Kind: OpSource, Doc: "bib.xml"}
	c := NewStateCache()
	c.begin()
	tbl := tableOf(&Tuple{
		Cells: []Cell{{Item{ID: ID{Constructed: true, Body: "c1"}, Count: 1}}},
		Count: 1,
	})
	c.noteFresh(op, tbl)
	commit(t, c, nil)
	if c.Len() != 0 {
		t.Error("constructed-content table was cached")
	}
	if c.Stats().Misses != 1 {
		t.Errorf("misses=%d, want 1 (rejection still counts the miss)", c.Stats().Misses)
	}
}

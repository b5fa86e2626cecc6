package xat

import (
	"testing"

	"xqview/internal/flexkey"
)

// Fold-layer unit tests: foldTable implements the counting solution over
// cached base tables, and Commit decides keep / fold / evict per entry from
// the round's update regions. These tests pin the exact semantics the
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

func tableOf(tuples ...*Tuple) *Table {
	t := NewTable("c")
	t.Tuples = tuples
	return t
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

func TestFoldTablePatchTupleFails(t *testing.T) {
	base := tableOf(nodeTuple("b", 1))
	patch := nodeTuple("b", 0)
	patch.Kind = Patch
	patch.Region = &Region{Mode: RegionModify, Anchor: "b"}
	if _, ok := foldTable(base, tableOf(patch)); ok {
		t.Error("patch tuples are not counting deltas; the fold must refuse them")
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
	c.begin(false)
	bibTbl := tableOf(nodeTuple("b", 1))
	priTbl := tableOf(nodeTuple("p", 1))
	c.noteFresh(bibOp, bibTbl)
	c.noteFresh(priOp, priTbl)
	commit(t, c, nil) // no regions: both entries admitted untouched
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}

	// Round 2: a bib-only region with a foldable delta for the bib entry.
	c.begin(false)
	c.noteDelta(bibOp, tableOf(deltaTuple("b.d", 1)))
	commit(t, c, map[string][]*Region{
		"bib.xml": {{Mode: RegionInsert, Anchor: "b.d"}},
	})
	st := c.Stats()
	if st.Folds != 1 || st.Evictions != 0 {
		t.Errorf("bib-only fold round: folds=%d evictions=%d, want 1/0", st.Folds, st.Evictions)
	}
	if tbl, ok := c.lookup(priOp); !ok || tbl != priTbl {
		t.Error("untouched prices entry was not kept verbatim")
	}
	if tbl, ok := c.lookup(bibOp); !ok || len(tbl.Tuples) != 2 {
		t.Error("bib entry did not fold the round's delta in")
	}

	// Round 3: a prices region whose delta retracts something never held —
	// the prices entry must be evicted, the bib entry untouched.
	c.begin(false)
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

	// Invalidate drops the rest.
	c.Invalidate()
	if c.Len() != 0 {
		t.Errorf("Invalidate left %d entries", c.Len())
	}
	// A nil cache is inert.
	var nc *StateCache
	nc.begin(false)
	nc.noteFresh(bibOp, bibTbl)
	nc.noteDelta(bibOp, nil)
	commit(t, nc, nil)
	nc.Invalidate()
	if nc.Len() != 0 || nc.Stats() != (CacheStats{}) {
		t.Error("nil cache must be a no-op")
	}
}

// TestStateCacheRejectsConstructed ensures noteFresh never admits tables
// holding constructed nodes.
func TestStateCacheRejectsConstructed(t *testing.T) {
	op := &Op{ID: 3, Kind: OpSource, Doc: "bib.xml"}
	c := NewStateCache()
	c.begin(false)
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

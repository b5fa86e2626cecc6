package deepunion

import "xqview/internal/xat"

// Txn is the copy-on-write tracker of one apply pass. Instead of mutating
// the live extent in place (the pre-MVCC design, which pre-imaged every
// touched node so rollback could restore it), the apply phase leaves the
// extent it was handed completely untouched: the first time a node would be
// mutated, Writable hands back a round-private copy — shallow node copy,
// private Attrs/Children slices, adopted child index — and the copy replaces
// the original in its (already writable) parent. Untouched subtrees are
// shared by pointer between the old and the new extent.
//
// This is what makes MVCC snapshot serving lock-free: a reader holding the
// pre-round extent can keep serializing it for as long as it likes while
// rounds commit behind it, because no round ever writes a published node's
// serialized content. Commit is the caller swapping its extent pointer to
// the returned roots; Rollback simply abandons the candidate copies. The
// copy set is proportional to the delta's touch set, never to the extent.
//
// A non-selective delta can touch hundreds of extent nodes per round, so
// the copies are batched: VNode copies carve out of per-round slabs and
// their Attrs/Children slices out of per-round pointer arenas, amortizing
// the heap traffic to a handful of allocations per round instead of a few
// per touched node. The slabs are NOT recycled — committed copies become
// the live extent and live as long as it does; Release only drops the
// tracker's references so the tracker never retains extent memory.
type Txn struct {
	// priv maps a node to its round-private writable form: original → copy
	// for shared extent nodes, and copy → copy (self) for nodes already
	// private to this round (copies made by Writable and roots of delta
	// subtrees cloned into the extent), so one lookup answers both "was
	// this copied before" and "is this already ours".
	priv map[*xat.VNode]*xat.VNode
	// copied counts shared extent nodes copied for writing (Rollback's
	// count).
	copied int

	// Current node slab and pointer arena, carved sequentially.
	slab []xat.VNode
	used int
	refs []*xat.VNode
	rpos int
}

// Slab sizing: nodes per VNode slab, pointers per ref arena, and the
// largest slice copied out of the arena — bigger ones (a root's thousand
// children) get their own exact allocation rather than burning most of a
// fresh arena on one node.
const (
	slabNodes = 256
	refArena  = 2048
	refInline = 256
)

// NewTxn returns an empty copy-on-write tracker. Its owner keeps it across
// rounds and calls Release (or Rollback) when each round is over: the touch
// set of a steady-state round has a stable size, so reusing the map's
// buckets removes the per-round map regrowth entirely.
func NewTxn() *Txn {
	return &Txn{priv: map[*xat.VNode]*xat.VNode{}}
}

// Release clears the tracker in place for its owner's next round, keeping
// the map's buckets and dropping the slab and pointer-arena references:
// committed copies are live extent memory now. Call only after the round
// committed or rolled back.
//
// The slab tail is not carried into the next round, although that would
// cut the bytes a round allocates: on the fanout benchmark workload a
// carried tail took alloc_kb_per_round from 1909 to 332, but live_heap_mb
// from 98.6 to 641.5 (feed-bulk: 48 to 130). The likely cause: a retained
// slab stays reachable from the tracker and keeps the superseded copies
// carved into it alive, and those reach older slabs in turn.
func (t *Txn) Release() {
	clear(t.priv)
	t.copied = 0
	t.slab, t.used = nil, 0
	t.refs, t.rpos = nil, 0
}

// Writable returns the round-private node to mutate in place of n: n itself
// when it is already private to this round, the existing copy when n was
// touched before, and a fresh copy otherwise. The caller must splice a
// fresh copy into its parent's (writable) child or attribute slice — the
// shared original keeps its place in the pre-round extent.
//
// The copy adopts the original's child index rather than cloning it (the
// original keeps none): readers never consult the index — it is maintenance
// state, not serialized content — and the apply pass keeps it consistent on
// the copy, so the index persists across rounds without a per-round
// O(fan-out) clone. A rolled-back round leaves its touched live nodes
// index-less; the next successful round rebuilds them lazily, exactly as
// the in-place design's rollback did.
func (t *Txn) Writable(n *xat.VNode) *xat.VNode {
	if cp, ok := t.priv[n]; ok {
		return cp
	}
	cp := t.node()
	*cp = *n
	cp.Attrs = t.copyRefs(n.Attrs)
	cp.Children = t.copyRefs(n.Children)
	cp.Index = n.Index
	n.Index = nil
	t.priv[n] = cp
	t.priv[cp] = cp
	t.copied++
	return cp
}

// adopt marks a node built this round (a cloned delta subtree root) as
// already private, so later deltas of the same batch mutate it directly.
func (t *Txn) adopt(n *xat.VNode) { t.priv[n] = n }

// node carves one VNode out of the current slab.
func (t *Txn) node() *xat.VNode {
	if t.used == len(t.slab) {
		t.slab = make([]xat.VNode, slabNodes)
		t.used = 0
	}
	cp := &t.slab[t.used]
	t.used++
	return cp
}

// copyRefs returns a private copy of a node-pointer slice (nil for empty:
// the apply phase treats nil and empty identically). Small slices carve out
// of the round's pointer arena with capacity clamped to length, so a later
// append (insertOrdered growing a child list) reallocates instead of
// scribbling over a neighbor's region.
func (t *Txn) copyRefs(s []*xat.VNode) []*xat.VNode {
	n := len(s)
	if n == 0 {
		return nil
	}
	if n > refInline {
		return append([]*xat.VNode(nil), s...)
	}
	if t.rpos+n > len(t.refs) {
		t.refs = make([]*xat.VNode, refArena)
		t.rpos = 0
	}
	dst := t.refs[t.rpos : t.rpos+n : t.rpos+n]
	t.rpos += n
	copy(dst, s)
	return dst
}

// Rollback abandons the round's candidate copies and clears the tracker
// (Release), returning how many were dropped. The extent the pass started
// from was never written, so there is nothing to restore — abandoning the
// copies IS the rollback.
func (t *Txn) Rollback() int {
	n := t.copied
	t.Release()
	return n
}

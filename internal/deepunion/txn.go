package deepunion

import (
	"unsafe"

	"xqview/internal/xat"
)

// Txn is the copy-on-write tracker of one apply pass. Instead of mutating
// the live extent in place (the pre-MVCC design, which pre-imaged every
// touched node so rollback could restore it), the apply phase leaves the
// extent it was handed completely untouched: the first time a node would be
// mutated, writable hands back a round-private copy — shallow node copy,
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
// A pass allocates only what it keeps. Every copy is of the extent node
// one delta node merges into, and every attached node is one delta node, so
// the nodes of the pass's delta trees bound the nodes it keeps: copies
// carve out of slabs of at most that many nodes (at most slabNodes each),
// and their Attrs/Children slices out of a pointer arena of at most that
// many pointers (at most refArena). A one-copy pass allocates one node, a
// large pass carves in full-size slabs. An attached delta subtree is copied
// into its own exact node block and pointer slice, so its lifetime is its
// own. The slabs are NOT recycled — committed copies become the live extent
// and live as long as it does; Release only drops the tracker's references
// so the tracker never retains extent memory.
type Txn struct {
	// applyCtx is the pass's scratch state, reset at the start of each pass
	// and by Release.
	applyCtx

	// priv maps a node to its round-private writable form: original → copy
	// for shared extent nodes, and copy → copy (self) for nodes already
	// private to this round (copies made by writable and roots of delta
	// subtrees attached to the extent), so one lookup answers both "was
	// this copied before" and "is this already ours".
	priv map[*xat.VNode]*xat.VNode
	// copied counts shared extent nodes copied for writing (Rollback's
	// count).
	copied int

	// bound is the node count of the pass's delta trees; left is what of it
	// the pass has not kept yet. Slabs are sized by left, the pointer arena
	// by bound.
	bound, left int

	// Current node slab and pointer arena, carved sequentially.
	slab []xat.VNode
	used int
	refs []*xat.VNode
	rpos int
}

// Slab ceilings: nodes per VNode slab, pointers per ref arena, and the
// largest slice copied out of the arena — bigger ones (a root's thousand
// children) get their own exact allocation rather than burning most of a
// fresh arena on one node. A pass whose delta is smaller carves less.
const (
	slabNodes = 256
	refArena  = 2048
	refInline = 256
)

// Sizes the pass's Stats.Bytes is counted in.
const (
	nodeBytes = int64(unsafe.Sizeof(xat.VNode{}))
	refBytes  = int64(unsafe.Sizeof((*xat.VNode)(nil)))
)

// NewTxn returns an empty copy-on-write tracker. Its owner keeps it across
// rounds and calls Release (or Rollback) when each round is over: the touch
// set of a steady-state round has a stable size, so reusing the maps'
// buckets removes the per-round map regrowth entirely.
func NewTxn() *Txn {
	return &Txn{
		applyCtx: applyCtx{
			dirty: map[*xat.VNode]bool{},
			roots: map[string]int{},
			attrs: map[string]int{},
		},
		priv: map[*xat.VNode]*xat.VNode{},
	}
}

// begin starts an apply pass over deltas recording into st: it clears the
// pass's scratch state and sets the pass's node budget.
func (t *Txn) begin(deltas []*xat.VNode, st *Stats) {
	t.reset(st)
	n := 0
	for _, d := range deltas {
		n += countNodes(d)
	}
	t.bound, t.left = n, n
	st.DeltaNodes += n
}

// countNodes counts the nodes of the tree rooted at n, attributes included.
func countNodes(n *xat.VNode) int {
	total := 1
	for _, a := range n.Attrs {
		total += countNodes(a)
	}
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// Release clears the tracker in place for its owner's next round, keeping
// the maps' buckets and dropping the slab, the pointer arena and the pass's
// scratch references: committed copies are live extent memory now, and a
// rolled-back round's copies are garbage. Call only after the round
// committed or rolled back. The slab tail is not carried into the next
// round (see DESIGN "Memory model").
func (t *Txn) Release() {
	t.reset(nil)
	clear(t.priv)
	t.copied = 0
	t.bound, t.left = 0, 0
	t.slab, t.used = nil, 0
	t.refs, t.rpos = nil, 0
}

// writable returns the round-private node to mutate in place of n, which
// delta node d merges into: n itself when it is already private to this
// round, the existing copy when n was touched before, and a fresh copy
// otherwise. The caller must splice a fresh copy into its parent's
// (writable) child or attribute slice — the shared original keeps its place
// in the pre-round extent. A fresh copy's child and attribute lists have
// room for every child and attribute d carries, so d's inserts append in
// place.
//
// The copy adopts the original's child index rather than cloning it (the
// original keeps none): readers never consult the index — it is maintenance
// state, not serialized content — and the apply pass keeps it consistent on
// the copy, so the index persists across rounds without a per-round
// O(fan-out) clone. A rolled-back round leaves its touched live nodes
// index-less; the next successful round rebuilds them lazily, exactly as
// the in-place design's rollback did.
func (t *Txn) writable(n, d *xat.VNode) *xat.VNode {
	if cp, ok := t.priv[n]; ok {
		return cp
	}
	cp := t.node()
	*cp = *n
	cp.Attrs = t.copyRefs(n.Attrs, len(d.Attrs))
	cp.Children = t.copyRefs(n.Children, len(d.Children))
	cp.Index = n.Index
	n.Index = nil
	t.priv[n] = cp
	t.priv[cp] = cp
	t.copied++
	return cp
}

// node carves one VNode out of the current slab, starting a slab of the
// pass's remaining budget when it is spent. Past the budget — which the
// tests assert is never reached — each node is its own allocation, and
// Stats.Kept exceeding Stats.DeltaNodes shows it.
func (t *Txn) node() *xat.VNode {
	if t.used == len(t.slab) {
		n := max(1, min(slabNodes, t.left))
		t.slab = make([]xat.VNode, n)
		t.used = 0
		t.st.Bytes += int64(n) * nodeBytes
	}
	cp := &t.slab[t.used]
	t.used++
	t.left--
	t.st.Kept++
	return cp
}

// copyRefs returns a private copy of a node-pointer slice with room for
// extra appends (nil when both are zero: the apply phase treats nil and
// empty identically). Small slices carve out of the pass's pointer arena
// with capacity clamped to len+extra, so an append past the room
// reallocates instead of scribbling over a neighbor's region.
func (t *Txn) copyRefs(s []*xat.VNode, extra int) []*xat.VNode {
	n := len(s)
	c := n + extra
	if c == 0 {
		return nil
	}
	if c > refInline {
		t.st.Bytes += int64(c) * refBytes
		return append(make([]*xat.VNode, 0, c), s...)
	}
	if t.rpos+c > len(t.refs) {
		size := max(c, min(refArena, t.bound))
		t.refs = make([]*xat.VNode, size)
		t.rpos = 0
		t.st.Bytes += int64(size) * refBytes
	}
	dst := t.refs[t.rpos : t.rpos+n : t.rpos+c]
	t.rpos += c
	copy(dst, s)
	return dst
}

// attach copies the delta subtree d into the candidate extent: one node
// block and one pointer slice, both of exact size, so a fragment costs two
// allocations however many nodes it has, and no block-mate with another
// lifetime pins it. The copy's root is private to this round, so later
// deltas of the same batch mutate it directly.
func (t *Txn) attach(d *xat.VNode) *xat.VNode {
	n := countNodes(d)
	block := make([]xat.VNode, n)
	var refs []*xat.VNode
	if n > 1 {
		refs = make([]*xat.VNode, n-1)
	}
	t.left -= n
	t.st.Kept += n
	t.st.Bytes += int64(n)*nodeBytes + int64(n-1)*refBytes
	cp, _, _ := cloneInto(d, block, refs)
	t.priv[cp] = cp
	return cp
}

// cloneInto deep-copies n into the head of block, its attribute and child
// lists into the head of refs, and returns the copy with what is left of
// both. Like VNode.Clone, the copy keeps n's key memo and drops its index.
func cloneInto(n *xat.VNode, block []xat.VNode, refs []*xat.VNode) (*xat.VNode, []xat.VNode, []*xat.VNode) {
	c := &block[0]
	block = block[1:]
	*c = *n
	c.Index = nil
	c.Attrs, refs = carve(refs, len(n.Attrs))
	c.Children, refs = carve(refs, len(n.Children))
	for i, a := range n.Attrs {
		c.Attrs[i], block, refs = cloneInto(a, block, refs)
	}
	for i, ch := range n.Children {
		c.Children[i], block, refs = cloneInto(ch, block, refs)
	}
	return c, block, refs
}

// carve splits k pointers, capacity clamped, off the head of refs.
func carve(refs []*xat.VNode, k int) ([]*xat.VNode, []*xat.VNode) {
	if k == 0 {
		return nil, refs
	}
	return refs[:k:k], refs[k:]
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

// Package deepunion implements the apply phase of the VPA framework (Ch 8):
// the count-aware Deep Union operator merges delta update trees into the
// materialized view extent. Nodes are matched by semantic identifier,
// counts are summed, value replacements applied in place, and — only after
// every delta has been merged — fragments whose count reached zero are
// disconnected directly at their root, never node by node (Sec 8.3.2).
//
// The pass is incremental end to end: merging consults a persistent
// per-node child index, and pruning only visits the nodes a delta actually
// touched, so refresh time is proportional to the delta, not to the extent.
package deepunion

import (
	"fmt"
	"slices"
	"sort"

	"xqview/internal/faultinject"
	"xqview/internal/journal"
	"xqview/internal/xat"
)

// Fault points at the apply phase's two boundaries: entry (before any merge
// touches the extent) and the merge→prune transition (after the extent has
// absorbed every delta but before dead fragments are disconnected). The
// second point fires with the extent mid-mutation, which is exactly the
// state a round transaction must be able to roll back.
var (
	fpApply      = faultinject.Register("deepunion.apply")
	fpApplyPrune = faultinject.Register("deepunion.apply.prune")
)

// Stats reports what one apply pass did.
type Stats struct {
	Merged   int // nodes whose counts were merged
	Inserted int // delta subtrees attached
	Removed  int // fragments disconnected (root disconnections, not nodes)
	Modified int // value replacements
}

// applyCtx threads the stats sink, the set of nodes whose children may
// need pruning after all deltas merged, and the copy-on-write tracker that
// hands out round-private copies of every node the pass mutates.
type applyCtx struct {
	st    *Stats
	dirty map[*xat.VNode]bool
	tx    *Txn
	// keyBuf backs alloc-free index lookups: node keys are appended here and
	// looked up as map[string(keyBuf)], which the compiler compiles without
	// materializing the string. Only inserts pay for a real Key() string.
	keyBuf []byte
}

// find looks id up in idx without allocating the key string.
func (ctx *applyCtx) find(idx map[string]*xat.VNode, id xat.ID) (*xat.VNode, bool) {
	ctx.keyBuf = id.AppendKey(ctx.keyBuf[:0])
	n, ok := idx[string(ctx.keyBuf)]
	return n, ok
}

// findPos looks id up in a position index without allocating the key string.
func (ctx *applyCtx) findPos(idx map[string]int, id xat.ID) (int, bool) {
	ctx.keyBuf = id.AppendKey(ctx.keyBuf[:0])
	i, ok := idx[string(ctx.keyBuf)]
	return i, ok
}

// fusionOf summarizes one delta tree for the journal: the view node it is
// fused into, the distinct source FlexKeys it carries, and the counting
// solution's insert/delete/modify totals across the tree.
func fusionOf(d *xat.VNode) journal.Fusion {
	f := journal.Fusion{ViewKey: d.ID.Key()}
	seen := map[string]bool{}
	var walk func(n *xat.VNode)
	walk = func(n *xat.VNode) {
		if !n.ID.Constructed && n.ID.Body != "" && !seen[n.ID.Body] {
			seen[n.ID.Body] = true
			if len(f.Sources) < journal.MaxFusionSources {
				f.Sources = append(f.Sources, n.ID.Body)
			}
		}
		switch {
		case n.Mod:
			f.Mods++
		case n.Count > 0:
			f.Inserts++
		case n.Count < 0:
			f.Deletes++
		}
		for _, a := range n.Attrs {
			walk(a)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d)
	return f
}

// ApplyTx merges the delta trees into the view roots and prunes dead
// fragments, returning the refreshed roots, under the copy-on-write tracker
// tx: the extent handed in is never written — every node the pass would
// mutate is replaced by a round-private copy (untouched subtrees stay
// shared by pointer), so the returned roots are a CANDIDATE next version of
// the extent. The caller commits by swapping its extent pointer to the
// returned slice, and rolls back by abandoning it; readers holding the
// pre-round extent are undisturbed either way. The caller must pass a
// private copy of the root slice (ApplyTx appends to and compacts it).
// Each delta tree fused into the extent lands in the journal as a Fusion
// record when rec is active; st, when non-nil, accumulates what the pass
// did.
func ApplyTx(roots []*xat.VNode, deltas []*xat.VNode, st *Stats, rec *journal.ViewRec, tx *Txn) ([]*xat.VNode, error) {
	if err := fpApply.Fire(); err != nil {
		return nil, err
	}
	if st == nil {
		st = &Stats{}
	}
	if rec.Active() {
		for _, d := range deltas {
			rec.Fusion(fusionOf(d))
		}
	}
	ctx := &applyCtx{st: st, dirty: map[*xat.VNode]bool{}, tx: tx}
	idx := map[string]int{}
	for i, r := range roots {
		idx[r.Key()] = i
	}
	rootsDirty := false
	for _, d := range deltas {
		if pos, ok := ctx.findPos(idx, d.ID); ok {
			old := roots[pos]
			nr := ctx.merge(old, d)
			if nr != old {
				roots[pos] = nr
			}
			// Checked even when this delta changed nothing: an earlier delta
			// of the same batch may have zeroed the root's count.
			if nr.Count <= 0 {
				rootsDirty = true
			}
			continue
		}
		cp := d.Clone()
		tx.adopt(cp)
		idx[cp.Key()] = len(roots)
		roots = append(roots, cp)
		st.Inserted++
		if cp.Count <= 0 {
			rootsDirty = true
		}
	}
	// Prune phase: disconnect dead fragments at their roots, visiting only
	// the parents a delta touched.
	if err := fpApplyPrune.Fire(); err != nil {
		return nil, err
	}
	for n := range ctx.dirty {
		pruneChildren(n, st)
	}
	if rootsDirty {
		live := roots[:0]
		for _, r := range roots {
			if r.Count > 0 {
				live = append(live, r)
			} else {
				st.Removed++
			}
		}
		roots = live
	}
	sortByOrder(roots)
	return roots, nil
}

// merge folds delta node d into the subtree rooted at ex WITHOUT writing
// ex, returning the node that stands for it afterwards: ex itself when the
// subtree absorbed no change (a zero-count spine descent that found nothing
// to do — the common case for patch spines), or a round-private copy
// carrying the merged state. Copies bubble up — a changed child forces a
// copy of its parent, to splice the new child pointer, while untouched
// siblings stay shared — so the copy set tracks the nodes that actually
// changed, not the nodes the delta visited. No pruning happens here: counts
// may transit through zero while the batch's deltas accumulate.
func (ctx *applyCtx) merge(ex, d *xat.VNode) *xat.VNode {
	ctx.st.Merged++
	out := ex // promoted to a round-private copy on the first real change
	if d.Count != 0 {
		out = ctx.tx.Writable(out)
		out.Count += d.Count
	}
	if d.Mod {
		out = ctx.tx.Writable(out)
		out.Value = d.Value
		ctx.st.Modified++
	}
	if len(d.Attrs) > 0 {
		attrsChanged := false
		aidx := map[string]int{}
		for i, a := range out.Attrs {
			aidx[a.Key()] = i
		}
		for _, da := range d.Attrs {
			if i, ok := ctx.findPos(aidx, da.ID); ok {
				if da.Count == 0 && !da.Mod {
					continue // a spine attr: nothing to add, nothing to modify
				}
				out = ctx.tx.Writable(out)
				ea := ctx.tx.Writable(out.Attrs[i])
				out.Attrs[i] = ea
				ea.Count += da.Count
				if da.Mod {
					ea.Value = da.Value
					ctx.st.Modified++
				} else if da.Count > 0 && da.Value != ea.Value {
					// A re-constructed node (e.g. a refreshed aggregate)
					// carries the attribute's new value with positive count.
					ea.Value = da.Value
					ctx.st.Modified++
				}
				attrsChanged = true
			} else {
				out = ctx.tx.Writable(out)
				cp := da.Clone()
				ctx.tx.adopt(cp)
				aidx[cp.Key()] = len(out.Attrs)
				out.Attrs = append(out.Attrs, cp)
				ctx.st.Inserted++
				attrsChanged = true
			}
		}
		if attrsChanged {
			for _, a := range out.Attrs {
				if a.Count <= 0 {
					ctx.dirty[out] = true
					break
				}
			}
		}
	}
	if len(d.Children) > 0 {
		// The index is read (and lazily built) on the shared node when no
		// change promoted it yet; a later promotion adopts the same map, so
		// cidx stays the live index either way.
		cidx := childIndex(out)
		for _, dc := range d.Children {
			if ec, ok := ctx.find(cidx, dc.ID); ok {
				nc := ctx.merge(ec, dc)
				if nc != ec {
					out = ctx.tx.Writable(out)
					replaceChild(out, ec, nc)
					cidx[nc.Key()] = nc
				}
				// Checked even when this delta changed nothing: an earlier
				// delta of the same batch may have zeroed the child's count,
				// and pruning needs the parent dirty (and writable).
				if nc.Count <= 0 {
					out = ctx.tx.Writable(out)
					ctx.dirty[out] = true
				}
				continue
			}
			out = ctx.tx.Writable(out)
			cp := dc.Clone()
			ctx.tx.adopt(cp)
			insertOrdered(out, cp)
			cidx[cp.Key()] = cp
			ctx.st.Inserted++
			if cp.Count <= 0 {
				ctx.dirty[out] = true
			}
		}
	}
	return out
}

// replaceChild swaps new in for old among parent's children. Children are
// kept sorted by order key, so the position is found by binary search on
// old's order, scanning an equal-order run for the exact pointer (with a
// full-scan fallback that tolerates an unsorted slice).
func replaceChild(parent, old, new *xat.VNode) {
	cs := parent.Children
	i := sort.Search(len(cs), func(i int) bool {
		return xat.CompareOrd(cs[i].ID.Order(), old.ID.Order()) >= 0
	})
	for ; i < len(cs); i++ {
		if cs[i] == old {
			cs[i] = new
			return
		}
	}
	for i := range cs {
		if cs[i] == old {
			cs[i] = new
			return
		}
	}
}

// childIndex returns the node's persistent child index, building it on
// first use. Keeping it across maintenance runs makes per-delta merging
// independent of the fan-out of the existing extent (self-maintainable
// views then refresh in time proportional to the update).
func childIndex(n *xat.VNode) map[string]*xat.VNode {
	if n.Index == nil {
		n.Index = make(map[string]*xat.VNode, len(n.Children))
		for _, c := range n.Children {
			n.Index[c.Key()] = c
		}
	}
	return n.Index
}

// pruneChildren disconnects dead children (and attributes) of one touched
// node; each disconnection drops a whole fragment (Sec 8.3.2).
func pruneChildren(n *xat.VNode, st *Stats) {
	if n.Count <= 0 {
		// The node itself is dead; its parent will disconnect it.
		return
	}
	liveA := n.Attrs[:0]
	for _, a := range n.Attrs {
		if a.Count > 0 {
			liveA = append(liveA, a)
		} else {
			st.Removed++
		}
	}
	n.Attrs = liveA
	live := n.Children[:0]
	for _, c := range n.Children {
		if c.Count > 0 {
			live = append(live, c)
		} else {
			st.Removed++
			if n.Index != nil {
				delete(n.Index, c.Key())
			}
		}
	}
	n.Children = live
}

// insertOrdered places a new child at its order-correct position among the
// existing (sorted) children.
func insertOrdered(parent *xat.VNode, c *xat.VNode) {
	cs := parent.Children
	i := sort.Search(len(cs), func(i int) bool {
		return xat.CompareOrd(cs[i].ID.Order(), c.ID.Order()) > 0
	})
	cs = append(cs, nil)
	copy(cs[i+1:], cs[i:])
	cs[i] = c
	parent.Children = cs
}

func sortByOrder(ns []*xat.VNode) {
	slices.SortStableFunc(ns, func(a, b *xat.VNode) int {
		return xat.CompareOrd(a.ID.Order(), b.ID.Order())
	})
}

// Validate checks structural invariants of a view extent (used by tests and
// failure injection): counts positive, children sorted, identifiers unique
// among siblings, child indexes consistent.
func Validate(roots []*xat.VNode) error {
	var walk func(n *xat.VNode) error
	walk = func(n *xat.VNode) error {
		if n.Count <= 0 {
			return fmt.Errorf("deepunion: node %s has non-positive count %d", n.ID, n.Count)
		}
		seen := map[string]bool{}
		for i, c := range n.Children {
			k := c.ID.Key()
			if seen[k] {
				return fmt.Errorf("deepunion: duplicate child id %s under %s", c.ID, n.ID)
			}
			seen[k] = true
			if i > 0 && xat.CompareOrd(n.Children[i-1].ID.Order(), c.ID.Order()) > 0 {
				return fmt.Errorf("deepunion: children of %s out of order at %d", n.ID, i)
			}
			if n.Index != nil {
				if got, ok := n.Index[k]; !ok || got != c {
					return fmt.Errorf("deepunion: stale child index under %s for %s", n.ID, c.ID)
				}
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		if n.Index != nil && len(n.Index) != len(n.Children) {
			return fmt.Errorf("deepunion: index size %d != children %d under %s",
				len(n.Index), len(n.Children), n.ID)
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r); err != nil {
			return err
		}
	}
	return nil
}

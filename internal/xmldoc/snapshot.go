package xmldoc

import (
	"fmt"
	"maps"
	"sort"

	"xqview/internal/flexkey"
)

// maxDeltaChain bounds how many overlay deltas a snapshot stacks before
// Extend flattens them into one. Every point read scans the chain newest-
// first, so the bound caps read cost; flattening merges maps (newest wins)
// without ever re-cloning the base, so its amortized cost is proportional
// to the keys the rounds actually touched.
const maxDeltaChain = 16

// Snap is an immutable point-in-time Reader over the store: a base store
// plus a chain of round deltas layered over it. Snaps are never mutated —
// Extend returns a NEW Snap sharing the base and the existing deltas — so
// any number of readers can hold and read one concurrently while
// maintenance rounds keep committing behind them.
//
// The same layered lookup serves a Draft, whose one delta lies over the
// live store; there a deletion marker reads through to the store (draft).
type Snap struct {
	base   *Store
	deltas []*Delta // oldest first; reads scan newest-first
	draft  bool     // deletion markers read through to base
}

// SnapOf captures the store's current state as a fresh snapshot. The base
// is a Clone (two map copies, no node copies) — callers take one at load
// time and extend it with per-round deltas afterwards.
func SnapOf(s *Store) *Snap {
	return &Snap{base: s.Clone()}
}

// Extend returns a new snapshot that reads as sn with d layered on top. sn
// itself is untouched. A nil or empty delta returns sn unchanged (the store
// state is identical). When the chain would exceed maxDeltaChain, the
// existing deltas and d are flattened into a single combined delta first.
func (sn *Snap) Extend(d *Delta) *Snap {
	if d == nil || d.Empty() {
		return sn
	}
	if len(sn.deltas) >= maxDeltaChain {
		return &Snap{base: sn.base, deltas: []*Delta{flatten(sn.deltas, d)}}
	}
	ds := make([]*Delta, 0, len(sn.deltas)+1)
	ds = append(ds, sn.deltas...)
	ds = append(ds, d)
	return &Snap{base: sn.base, deltas: ds}
}

// flatten merges a delta chain (oldest first) plus one more into a single
// delta, newest record winning per key. The inputs stay untouched — records
// are shared by reference into the combined maps, which is safe because
// deltas are immutable once their draft is done.
func flatten(ds []*Delta, last *Delta) *Delta {
	out := &Delta{nodes: map[flexkey.Key]*Node{}, roots: map[string]flexkey.Key{}, docSeq: last.docSeq}
	for _, d := range append(append([]*Delta(nil), ds...), last) {
		maps.Copy(out.nodes, d.nodes)
		maps.Copy(out.roots, d.roots)
	}
	return out
}

// node is the one layered lookup. It scans the deltas newest first; the
// first that holds k answers, and a deletion marker answers "absent" —
// unless through is set, when it falls back to the base: the pre-round
// state a draft's propagation still reads. Children, Attrs and Parent read
// the record it returns.
func (sn *Snap) node(k flexkey.Key, through bool) (*Node, bool) {
	for i := len(sn.deltas) - 1; i >= 0; i-- {
		if n, ok := sn.deltas[i].nodes[k]; ok {
			if n != nil || !through {
				return n, n != nil
			}
			break
		}
	}
	return sn.base.Node(k)
}

// Node implements Reader.
func (sn *Snap) Node(k flexkey.Key) (*Node, bool) { return sn.node(k, sn.draft) }

// Children implements Reader.
func (sn *Snap) Children(k flexkey.Key) []flexkey.Key { return childKeys(sn.Node(k)) }

// Attrs implements Reader.
func (sn *Snap) Attrs(k flexkey.Key) []flexkey.Key { return attrKeys(sn.Node(k)) }

// Parent returns the parent key of k, like Store.Parent.
func (sn *Snap) Parent(k flexkey.Key) flexkey.Key { return parentKey(sn.Node(k)) }

// Root implements Reader.
func (sn *Snap) Root(doc string) (flexkey.Key, bool) {
	for i := len(sn.deltas) - 1; i >= 0; i-- {
		if v, ok := sn.deltas[i].roots[doc]; ok {
			return v, v != ""
		}
	}
	return sn.base.Root(doc)
}

// RootElem returns the root element key of a document, like Store.RootElem.
func (sn *Snap) RootElem(doc string) (flexkey.Key, bool) {
	d, ok := sn.Root(doc)
	if !ok {
		return "", false
	}
	cs := sn.Children(d)
	if len(cs) == 0 {
		return "", false
	}
	return cs[0], true
}

// Docs returns the names of all documents visible in the snapshot.
func (sn *Snap) Docs() []string {
	seen := map[string]bool{}
	for _, doc := range sn.base.Docs() {
		seen[doc] = true
	}
	for _, d := range sn.deltas {
		for doc, v := range d.roots {
			seen[doc] = v != ""
		}
	}
	out := make([]string, 0, len(seen))
	for doc, live := range seen {
		if live {
			out = append(out, doc)
		}
	}
	sort.Strings(out)
	return out
}

// Depth returns the overlay chain length, for telemetry and the
// reclamation tests (bounded by maxDeltaChain).
func (sn *Snap) Depth() int { return len(sn.deltas) }

// DebugDump renders the snapshot's visible state in the same deterministic
// format as Store.DebugDump minus the size line (a snapshot has no cheap
// total-node count), so tests can byte-compare a snapshot against a live
// store frame via DumpPrefix.
func (sn *Snap) DebugDump() string {
	seq := sn.base.docSeq
	if n := len(sn.deltas); n > 0 {
		seq = sn.deltas[n-1].docSeq
	}
	return dump(sn) + fmt.Sprintf("docSeq=%d\n", seq)
}

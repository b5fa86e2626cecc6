package xat

import (
	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// navBufs holds reusable navigation buffers so steady-state path evaluation
// performs no per-call allocation. The slice returned by evalPathItemsBuf
// aliases nb.out and is only valid until the next call with the same bufs;
// every caller iterates or copies the result immediately.
type navBufs struct {
	seen      map[flexkey.Key]bool
	cur, next []flexkey.Key
	out       []Item
}

// evalPathItemsBuf navigates path from the node start, returning result
// items in document order. Element targets become node items; attribute
// targets and text() targets become value items that retain their node
// identity.
//
// keep, when non-nil, prunes: after every element step, only candidates for
// which it returns true survive. When anchor is set, predicate-free child
// steps from the anchor's ancestor chain jump directly along the chain
// instead of scanning siblings; the propagate phase thus navigates a batch
// of k updates in O(k·(depth + fragment)) instead of k full document scans.
// singles, when non-nil, holds one precomputed single-step path per step of
// path (built once per plan in Analyze), saving a per-step allocation. nb,
// when non-nil, supplies scratch buffers; the returned slice may alias
// nb.out.
func evalPathItemsBuf(r xmldoc.Reader, start flexkey.Key, path *xpath.Path, singles []xpath.Path, keep func(flexkey.Key) bool, anchor flexkey.Key, nb *navBufs) []Item {
	var curElems []flexkey.Key
	if nb != nil {
		curElems = append(nb.cur[:0], start)
	} else {
		curElems = []flexkey.Key{start}
	}
	var curItems []Item // non-element results (attr values, text)
	for si := range path.Steps {
		st := &path.Steps[si]
		switch st.Kind {
		case xpath.ElemTest:
			var one *xpath.Path
			if singles != nil {
				one = &singles[si]
			} else {
				one = &xpath.Path{Steps: []xpath.Step{*st}}
			}
			var next []flexkey.Key
			if nb != nil {
				next = nb.next[:0]
			}
			// Dedup is only needed on overlapping axes: curElems is
			// duplicate-free by induction (single start, deduped steps), and
			// child-axis results from distinct parents are disjoint, so child
			// steps skip the seen map entirely. This matters beyond the map
			// cost itself — a reused seen map is cleared with clear(), which
			// walks the map's full bucket capacity, so one wide step (a base
			// re-derivation over the whole source) would tax every later
			// narrow call through the same bufs with an O(source) wipe.
			var seen map[flexkey.Key]bool
			if st.Axis != xpath.Child {
				if nb != nil {
					if nb.seen == nil {
						nb.seen = make(map[flexkey.Key]bool)
					} else {
						clear(nb.seen)
					}
					seen = nb.seen
				} else {
					seen = make(map[flexkey.Key]bool)
				}
			}
			for _, c := range curElems {
				// Fast path: from a node on the pruning anchor's ancestor
				// chain, a predicate-free child step can jump straight to
				// the next key segment on that chain — no sibling scan.
				if anchor != "" && len(st.Preds) == 0 && st.Axis == xpath.Child &&
					flexkey.IsAncestorOf(c, anchor) {
					k := flexkey.Prefix(anchor, flexkey.Depth(c)+1)
					if n, ok := r.Node(k); ok && n.Kind == xmldoc.Element &&
						(st.Name == "*" || n.Name == st.Name) {
						if (keep == nil || keep(k)) && (seen == nil || !seen[k]) {
							if seen != nil {
								seen[k] = true
							}
							next = append(next, k)
						}
					}
					continue
				}
				for _, k := range xpath.Eval(r, c, one) {
					if (keep == nil || keep(k)) && (seen == nil || !seen[k]) {
						if seen != nil {
							seen[k] = true
						}
						next = append(next, k)
					}
				}
			}
			if nb != nil {
				// Double-buffer: the step's output becomes the next step's
				// input; keep both slices' capacity on the bufs.
				nb.next = curElems[:0]
				nb.cur = next
			}
			curElems = next
		case xpath.AttrTest:
			curItems = nil
			for _, c := range curElems {
				if st.Axis == xpath.Descendant {
					for _, e := range append([]flexkey.Key{c}, xmldoc.DescendantElems(r, c, "*")...) {
						if a, ok := xmldoc.Attribute(r, e, st.Name); ok {
							curItems = append(curItems, attrItem(r, a))
						}
					}
				} else if a, ok := xmldoc.Attribute(r, c, st.Name); ok {
					curItems = append(curItems, attrItem(r, a))
				}
			}
			curElems = nil
		case xpath.TextTest:
			if curElems == nil {
				// text() over attribute items: the attribute's value.
				// Items already carry the value; keep them.
				continue
			}
			curItems = nil
			for _, c := range curElems {
				for _, tk := range xmldoc.TextChildren(r, c) {
					n, _ := r.Node(tk)
					curItems = append(curItems, Item{ID: BaseID(tk), Val: n.Value, IsVal: true})
				}
			}
			curElems = nil
		}
		if curElems == nil && curItems == nil {
			return nil
		}
	}
	if curElems != nil {
		var out []Item
		if nb != nil {
			out = nb.out[:0]
		} else {
			out = make([]Item, 0, len(curElems))
		}
		for _, k := range curElems {
			out = append(out, NodeItem(k, 0))
		}
		if nb != nil {
			nb.out = out
		}
		return out
	}
	return curItems
}

func attrItem(r xmldoc.Reader, a flexkey.Key) Item {
	n, _ := r.Node(a)
	return Item{ID: BaseID(a), Val: n.Value, IsVal: true}
}

package xat

import (
	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

// materializeDelta turns the final delta table into delta update trees
// (Ch 7.7): delta tuples become signed fragments; patch tuples become
// zero-count spines leading to the changed region, with Mod markers for
// value replacements.
func (e *deltaEngine) materializeDelta(final *Table, col string) []*VNode {
	var out []*VNode
	if final == nil || !final.HasCol(col) {
		return nil
	}
	ci := final.Col(col)
	for _, tp := range final.Tuples {
		for _, it := range tp.Cells[ci] {
			var n *VNode
			if tp.Kind == Patch {
				n = e.buildPatch(it, tp)
			} else {
				c := it.Count
				if c == 0 {
					c = tp.Count
				}
				n = e.derefDelta(e.readerFor(tp), it, c)
			}
			if n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// derefDelta materializes a delta fragment with signed counts. Pinned
// constructed nodes (the unconditional roots) contribute zero. The trees are
// round transients — the deep union clones everything it keeps — so their
// nodes come from the round arena.
func (e *deltaEngine) derefDelta(rd xmldoc.Reader, it Item, count int) *VNode {
	a := e.env.alloc
	if it.ID.Constructed {
		skel, ok := it.Skel, it.Skel != nil
		if !ok {
			skel, ok = e.env.Cons[it.ID.Key()]
		}
		if !ok {
			if it.IsVal {
				return a.vnode(VNode{ID: it.ID, Kind: xmldoc.Text, Value: it.Val, Count: count})
			}
			return nil
		}
		if skel.Pinned {
			count = 0
		}
		n := a.vnode(VNode{ID: it.ID, Kind: xmldoc.Element, Name: skel.Name, Count: count})
		if len(skel.Attrs) > 0 {
			n.Attrs = a.MakeVNodeRefs(0, len(skel.Attrs))
			for _, at := range skel.Attrs {
				n.Attrs = append(n.Attrs, a.vnode(VNode{
					ID:   ID{Body: "attr" + bodySep + at.Name, Constructed: true},
					Kind: xmldoc.Attr, Name: at.Name, Value: at.Value, Count: count,
				}))
			}
		}
		content := a.makeItems(len(skel.Content), len(skel.Content))
		copy(content, skel.Content)
		sortCellByOrder(content)
		if len(content) > 0 {
			n.Children = a.MakeVNodeRefs(0, len(content))
		}
		for _, c := range content {
			cc := c.Count
			if cc == 0 {
				cc = count
			}
			if sub := e.derefDelta(rd, c, cc); sub != nil {
				n.Children = append(n.Children, sub)
			}
		}
		return n
	}
	if it.IsVal && it.ID.Body == "" {
		return a.vnode(VNode{ID: ID{Body: "val" + bodySep + it.Val}, Kind: xmldoc.Text, Value: it.Val, Count: count})
	}
	k := flexkey.Key(it.ID.Body)
	nd, ok := rd.Node(k)
	if !ok {
		// Content from the other store side (e.g. a deleted sibling of an
		// inserted node); fall back to the base store.
		nd, ok = e.in.Base.Node(k)
		if !ok {
			return nil
		}
		rd = e.in.Base
	}
	if it.IsVal {
		return a.vnode(VNode{ID: it.ID, Kind: nd.Kind, Name: nd.Name, Value: nd.Value, Count: count})
	}
	root := copyBaseAlloc(a, rd, nd, count)
	root.ID = it.ID
	return root
}

// buildPatch materializes the patch contribution of one item: a spine of
// zero-count nodes from the item down to the update region, carrying the
// signed region content or the Mod marker (Ch 8.2).
func (e *deltaEngine) buildPatch(it Item, tp *Tuple) *VNode {
	r := tp.Region
	if r == nil {
		return nil
	}
	sign := r.Sign()
	a := e.env.alloc
	if it.ID.Constructed {
		skel, ok := it.Skel, it.Skel != nil
		if !ok {
			skel, ok = e.env.Cons[it.ID.Key()]
		}
		if !ok {
			return nil
		}
		n := a.vnode(VNode{ID: it.ID, Kind: xmldoc.Element, Name: skel.Name, Count: 0})
		content := a.makeItems(len(skel.Content), len(skel.Content))
		copy(content, skel.Content)
		sortCellByOrder(content)
		for _, c := range content {
			if sub := e.buildPatch(c, tp); sub != nil {
				if n.Children == nil {
					n.Children = a.MakeVNodeRefs(0, len(content))
				}
				n.Children = append(n.Children, sub)
			}
		}
		if len(n.Children) == 0 {
			return nil // no path to the region through this node
		}
		return n
	}
	if it.ID.Body == "" {
		return nil
	}
	k := flexkey.Key(it.ID.Body)
	switch {
	case r.Mode == RegionModify && k == r.Anchor:
		nd, ok := e.in.Base.Node(k)
		if !ok {
			return nil
		}
		return a.vnode(VNode{ID: it.ID, Kind: nd.Kind, Name: nd.Name, Value: r.NewValue, Count: 0, Mod: true})
	case r.Mode != RegionModify && flexkey.IsSelfOrAncestorOf(r.Anchor, k):
		// Content wholly inside the region: a signed fragment.
		var rd xmldoc.Reader = e.in.Base
		if r.Mode == RegionInsert {
			rd = e.in.New
		}
		c := tp.Count * sign
		if c == 0 {
			c = sign
		}
		return e.derefDelta(rd, it, c)
	case flexkey.IsAncestorOf(k, r.Anchor):
		return e.spine(it, k, tp)
	}
	return nil
}

// spine builds the zero-count path from base node k down to the region.
func (e *deltaEngine) spine(it Item, k flexkey.Key, tp *Tuple) *VNode {
	r := tp.Region
	nd, ok := e.in.Base.Node(k)
	if !ok {
		return nil
	}
	a := e.env.alloc
	n := a.vnode(VNode{ID: it.ID, Kind: nd.Kind, Name: nd.Name, Value: nd.Value, Count: 0})
	if n.ID.Body == "" {
		n.ID = BaseID(k)
	}
	// Attribute regions: the anchor may be an attribute of k.
	for _, ak := range nd.Attrs {
		if flexkey.IsSelfOrAncestorOf(ak, r.Anchor) {
			sub := e.buildPatch(Item{ID: BaseID(ak)}, tp)
			if sub != nil {
				n.Attrs = append(n.Attrs, sub)
			}
		}
	}
	// Inserted fragments hang under their base parent.
	if r.Mode == RegionInsert && r.Parent == k {
		c := tp.Count
		if c == 0 {
			c = 1
		}
		if sub := e.derefDelta(e.in.New, NodeItem(r.Anchor, 0), c); sub != nil {
			n.Children = append(n.Children, sub)
		}
		return n
	}
	for _, ck := range nd.Children {
		if flexkey.IsSelfOrAncestorOf(ck, r.Anchor) {
			if sub := e.buildPatch(Item{ID: BaseID(ck)}, tp); sub != nil {
				n.Children = append(n.Children, sub)
			}
		}
	}
	return n
}

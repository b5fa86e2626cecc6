package xat

import (
	"fmt"
	"slices"
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

// VNode is one node of a materialized view extent. The extent is a tree of
// VNodes, each carrying its semantic identifier (for fusion), its count
// annotation (number of derivations, Ch 6) and its local order (through the
// identifier's order key). Children are kept sorted by order.
type VNode struct {
	ID       ID
	Kind     xmldoc.Kind
	Name     string
	Value    string
	Count    int
	Mod      bool // set in delta trees: replace the matched node's value
	Attrs    []*VNode
	Children []*VNode

	// Index caches children by identifier key. It is built lazily and kept
	// consistent by the deep union (the only code that mutates materialized
	// extents); everything else must leave it nil.
	Index map[string]*VNode

	// key memoizes ID.Key(). Filled lazily by Key(), inherited by shallow
	// copies (the ID is immutable once the node enters an extent). Only the
	// deep union — the single writer of a view's extent — reads or writes
	// it; serialization never touches it.
	key string
}

// Key returns ID.Key(), computing it once and reusing the string on every
// later call. The deep union keys child and attribute indexes with it, so
// steady-state maintenance rounds re-key touched nodes without
// re-materializing the string.
func (n *VNode) Key() string {
	if n.key == "" {
		n.key = n.ID.Key()
	}
	return n.key
}

// MaterializeResult dereferences the result column of the final table (the
// output of the top Combine/Tagger) into view trees, sorting collections by
// their order keys (Sec 3.3.3: partial sort at result generation only). It
// runs in one "Materialize" span under env.Span.
func MaterializeResult(env *Env, tbl *Table, col string) []*VNode {
	sp := env.Span.Child("Materialize")
	defer sp.End()
	var out []*VNode
	ci := tbl.Col(col)
	for _, tp := range tbl.Tuples {
		for _, it := range tp.Cells[ci] {
			c := it.Count
			if c == 0 {
				c = tp.Count
			}
			n := Deref(env, it, c)
			if n != nil {
				out = append(out, n)
			}
		}
	}
	sortVNodes(out)
	return out
}

// Deref materializes one item into a view tree with the given derivation
// count. Base items copy their subtree from the store; constructed items
// expand their skeleton recursively. An item count of 0 inherits the parent
// count; combined collections carry explicit member counts.
func Deref(env *Env, it Item, count int) *VNode {
	if it.ID.Constructed {
		skel, ok := it.Skel, it.Skel != nil
		if !ok {
			skel, ok = env.Cons[it.ID.Key()]
		}
		if !ok {
			// A constructed literal text child.
			if it.IsVal {
				return &VNode{ID: it.ID, Kind: xmldoc.Text, Value: it.Val, Count: count}
			}
			panic(fmt.Sprintf("xat: missing skeleton for %s", it.ID))
		}
		if skel.Pinned {
			count = 1
		}
		n := &VNode{ID: it.ID, Kind: xmldoc.Element, Name: skel.Name, Count: count}
		for _, a := range skel.Attrs {
			n.Attrs = append(n.Attrs, &VNode{
				ID:   ID{Body: "attr" + bodySep + a.Name, Constructed: true},
				Kind: xmldoc.Attr, Name: a.Name, Value: a.Value, Count: count,
			})
		}
		content := append(Cell(nil), skel.Content...)
		sortCellByOrder(content)
		for _, c := range content {
			cc := c.Count
			if cc == 0 {
				cc = count
			}
			sub := Deref(env, c, cc)
			if sub != nil {
				n.Children = append(n.Children, sub)
			}
		}
		return n
	}
	if it.IsVal && it.ID.Body == "" {
		return &VNode{ID: ID{Body: "val" + bodySep + it.Val}, Kind: xmldoc.Text, Value: it.Val, Count: count}
	}
	if it.IsVal {
		// A value item with node identity (attribute or text target).
		nd, ok := env.Store.Node(flexkey.Key(it.ID.Body))
		if !ok {
			panic(fmt.Sprintf("xat: missing base node %s", it.ID.Body))
		}
		kind := nd.Kind
		v := &VNode{ID: it.ID, Kind: kind, Name: nd.Name, Value: nd.Value, Count: count}
		return v
	}
	// Base node: copy the subtree from the store.
	k := flexkey.Key(it.ID.Body)
	nd, ok := env.Store.Node(k)
	if !ok {
		panic(fmt.Sprintf("xat: missing base node %s", k))
	}
	root := copyBase(env.Store, nd, count)
	root.ID = it.ID // preserve the overriding order assigned by the query
	return root
}

func copyBase(r xmldoc.Reader, nd *xmldoc.Node, count int) *VNode {
	return copyBaseAlloc(nil, r, nd, count)
}

// copyBaseAlloc is copyBase with an optional round arena: the delta engine's
// update trees are transient, so their base-subtree copies need not touch
// the heap. Materialization passes nil and gets plain heap nodes.
func copyBaseAlloc(a *Alloc, r xmldoc.Reader, nd *xmldoc.Node, count int) *VNode {
	n := a.vnode(VNode{ID: BaseID(nd.Key), Kind: nd.Kind, Name: nd.Name, Value: nd.Value, Count: count})
	if len(nd.Attrs) > 0 {
		n.Attrs = a.MakeVNodeRefs(0, len(nd.Attrs))
		for _, ak := range nd.Attrs {
			if an, ok := r.Node(ak); ok {
				n.Attrs = append(n.Attrs, copyBaseAlloc(a, r, an, count))
			}
		}
	}
	if len(nd.Children) > 0 {
		n.Children = a.MakeVNodeRefs(0, len(nd.Children))
		for _, ck := range nd.Children {
			if cn, ok := r.Node(ck); ok {
				n.Children = append(n.Children, copyBaseAlloc(a, r, cn, count))
			}
		}
	}
	return n
}

// sortVNodes orders sibling view nodes by their order keys, ties broken by
// identity so base fragments stay in document order.
func sortVNodes(ns []*VNode) {
	slices.SortStableFunc(ns, func(a, b *VNode) int {
		return CompareOrd(a.ID.Order(), b.ID.Order())
	})
}

// Frag converts the view tree into a detached XML fragment, dropping nodes
// whose count is not positive. Serving goes through ExtentXML; the fragment
// is for indented output and for the tests that compare the two.
func (n *VNode) Frag() *xmldoc.Frag {
	if n.Count <= 0 {
		return nil
	}
	switch n.Kind {
	case xmldoc.Text:
		return xmldoc.TextF(n.Value)
	case xmldoc.Attr:
		return xmldoc.AttrF(n.Name, n.Value)
	}
	f := &xmldoc.Frag{Kind: xmldoc.Element, Name: n.Name}
	for _, a := range n.Attrs {
		if a.Count > 0 {
			f.Attrs = append(f.Attrs, xmldoc.AttrF(a.Name, a.Value))
		}
	}
	for _, c := range n.Children {
		cf := c.Frag()
		if cf == nil {
			continue
		}
		// An attribute node appearing in element content becomes an
		// attribute of the constructed element (XQuery constructor
		// semantics).
		if cf.Kind == xmldoc.Attr {
			f.Attrs = append(f.Attrs, cf)
			continue
		}
		f.Children = append(f.Children, cf)
	}
	return f
}

// XML serializes the view tree.
func (n *VNode) XML() string {
	return ExtentXML([]*VNode{n})
}

// ExtentXML serializes a sequence of view trees into one string, byte for
// byte what concatenating Frag().String() over the roots gives, without
// building the fragments: nodes whose count is not positive are dropped, an
// attribute node in element content moves into the start tag (XQuery
// constructor semantics), and an element nothing survives under closes
// itself.
func ExtentXML(roots []*VNode) string {
	size := 0
	for _, r := range roots {
		size += r.xmlSize()
	}
	var b strings.Builder
	b.Grow(size)
	for _, r := range roots {
		r.writeXML(&b)
	}
	return b.String()
}

// xmlSize estimates the length writeXML produces so the builder is sized
// once: exact but for escapes (which add) and self-closed elements (which
// drop the end tag).
func (n *VNode) xmlSize() int {
	if n.Count <= 0 {
		return 0
	}
	switch n.Kind {
	case xmldoc.Text:
		return len(n.Value)
	case xmldoc.Attr:
		return len(n.Name) + len(n.Value) + len(`=""`)
	}
	size := 2*len(n.Name) + len("<></>")
	for _, a := range n.Attrs {
		if a.Count > 0 {
			size += 1 + a.xmlSize()
		}
	}
	for _, c := range n.Children {
		if c.Kind == xmldoc.Attr && c.Count > 0 {
			size++
		}
		size += c.xmlSize()
	}
	return size
}

func (n *VNode) writeXML(b *strings.Builder) {
	if n.Count <= 0 {
		return
	}
	switch n.Kind {
	case xmldoc.Text:
		xmldoc.WriteText(b, n.Value)
		return
	case xmldoc.Attr:
		xmldoc.WriteAttr(b, n.Name, n.Value)
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		if a.Count > 0 {
			b.WriteByte(' ')
			xmldoc.WriteAttr(b, a.Name, a.Value)
		}
	}
	content := false
	for _, c := range n.Children {
		switch {
		case c.Count <= 0:
		case c.Kind == xmldoc.Attr:
			b.WriteByte(' ')
			xmldoc.WriteAttr(b, c.Name, c.Value)
		default:
			content = true
		}
	}
	if !content {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		if c.Kind != xmldoc.Attr {
			c.writeXML(b)
		}
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
}

// Clone deep-copies a view tree. The child index is not carried over.
func (n *VNode) Clone() *VNode {
	c := *n
	c.Index = nil
	c.Attrs = make([]*VNode, len(n.Attrs))
	for i, a := range n.Attrs {
		c.Attrs[i] = a.Clone()
	}
	c.Children = make([]*VNode, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return &c
}

// NodeCount returns the number of live nodes in the tree.
func (n *VNode) NodeCount() int {
	if n.Count <= 0 {
		return 0
	}
	total := 1 + len(n.Attrs)
	for _, c := range n.Children {
		total += c.NodeCount()
	}
	return total
}

// Dump renders the tree with identifiers and counts for debugging.
func (n *VNode) Dump() string {
	var b strings.Builder
	var walk func(v *VNode, depth int)
	walk = func(v *VNode, depth int) {
		pad := strings.Repeat("  ", depth)
		switch v.Kind {
		case xmldoc.Text:
			fmt.Fprintf(&b, "%s#text %q id=%s count=%d\n", pad, v.Value, v.ID, v.Count)
		case xmldoc.Attr:
			fmt.Fprintf(&b, "%s@%s=%q count=%d\n", pad, v.Name, v.Value, v.Count)
		default:
			fmt.Fprintf(&b, "%s<%s> id=%s count=%d\n", pad, v.Name, v.ID, v.Count)
			for _, a := range v.Attrs {
				walk(a, depth+1)
			}
		}
		for _, c := range v.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// Package sapt implements the Source Access Pattern Tree of Sec 5.2: a trie
// of the paths a view's plan navigates in each source document, annotated
// with how each path is used. It classifies source update primitives into
//
//   - Irrelevant: the update cannot affect the view and is discarded;
//   - Pass: the update propagates through the incremental maintenance plan
//     as-is (structural changes at navigation targets, and patches inside
//     exposed fragments);
//   - Rewrite: the update changes values the plan compares, orders, groups
//     or distinct-s on, so it is rewritten during validation into a
//     delete+insert of the enclosing navigation anchor (Sec 5.2.2 treats
//     this as annotating the update with the missing information needed for
//     sound propagation).
package sapt

import (
	"fmt"
	"strings"

	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// Disposition classifies a primitive against the view.
type Disposition int

const (
	// Irrelevant updates cannot affect the view.
	Irrelevant Disposition = iota
	// Pass updates propagate through the IMPs unchanged.
	Pass
	// Rewrite updates must be converted to delete+insert of their
	// navigation anchor before propagation.
	Rewrite
)

func (d Disposition) String() string {
	switch d {
	case Irrelevant:
		return "irrelevant"
	case Pass:
		return "pass"
	case Rewrite:
		return "rewrite"
	}
	return fmt.Sprintf("Disposition(%d)", int(d))
}

// Node is one trie node of the SAPT.
type Node struct {
	Name      string
	Children  map[string]*Node
	Desc      map[string]*Node // descendant-axis edges (//name)
	ForTarget bool             // a Navigate Unnest target (tuple anchor)
	ValueUsed bool             // value feeds a predicate/order/group/distinct/attr
	Exposed   bool             // subtree content reaches the view output
}

func newNode(name string) *Node {
	return &Node{Name: name, Children: map[string]*Node{}, Desc: map[string]*Node{}}
}

func (n *Node) child(name string) *Node {
	c, ok := n.Children[name]
	if !ok {
		c = newNode(name)
		n.Children[name] = c
	}
	return c
}

func (n *Node) descChild(name string) *Node {
	c, ok := n.Desc[name]
	if !ok {
		c = newNode(name)
		n.Desc[name] = c
	}
	return c
}

// Tree is the SAPT of one view: a trie per source document.
type Tree struct {
	Docs map[string]*Node
}

// Build derives the SAPT from an analyzed plan.
func Build(p *xat.Plan) *Tree {
	t := &Tree{Docs: map[string]*Node{}}
	// colNodes maps plan columns to the trie nodes their items come from.
	colNodes := map[string][]*Node{}
	markVU := func(col string) {
		for _, n := range colNodes[col] {
			n.ValueUsed = true
		}
	}
	for _, o := range p.Ops() {
		switch o.Kind {
		case xat.OpSource:
			root, ok := t.Docs[o.Doc]
			if !ok {
				root = newNode(o.Doc)
				t.Docs[o.Doc] = root
			}
			colNodes[o.OutCol] = []*Node{root}
		case xat.OpNavUnnest, xat.OpNavCollection:
			finals := extendByPath(colNodes[o.InCol], o.Path)
			if o.Kind == xat.OpNavUnnest {
				for _, n := range finals {
					n.ForTarget = true
				}
			}
			colNodes[o.OutCol] = finals
		case xat.OpSelect, xat.OpJoin, xat.OpLOJ:
			for _, c := range o.Conds {
				if !c.L.IsLit {
					markVU(c.L.Col)
				}
				if !c.R.IsLit {
					markVU(c.R.Col)
				}
			}
		case xat.OpDistinct:
			markVU(o.InCol)
		case xat.OpGroupBy:
			if !o.GroupByID {
				for _, g := range o.GroupCols {
					markVU(g)
				}
			}
			if o.Agg != "" {
				markVU(o.InCol)
			}
		case xat.OpOrderBy:
			for _, c := range o.OrderCols {
				markVU(c)
			}
		case xat.OpTagger:
			for _, part := range o.Pattern.Content {
				if part.IsCol {
					for _, n := range colNodes[part.Col] {
						n.Exposed = true
					}
				}
			}
			for _, a := range o.Pattern.Attrs {
				for _, part := range a.Parts {
					if part.IsCol {
						markVU(part.Col)
					}
				}
			}
			colNodes[o.OutCol] = nil // constructed
		case xat.OpXMLUnion:
			colNodes[o.OutCol] = append(append([]*Node(nil), colNodes[o.UnionCols[0]]...), colNodes[o.UnionCols[1]]...)
		}
	}
	return t
}

// extendByPath walks the trie from the given nodes along the path's steps,
// creating nodes as needed, and returns the final nodes. Predicate paths
// are walked too and their targets marked value-used.
func extendByPath(from []*Node, path *xpath.Path) []*Node {
	cur := from
	for i := range path.Steps {
		st := &path.Steps[i]
		name := stepName(st)
		var next []*Node
		for _, n := range cur {
			var c *Node
			if st.Axis == xpath.Descendant {
				c = n.descChild(name)
			} else {
				c = n.child(name)
			}
			next = append(next, c)
		}
		for _, pr := range st.Preds {
			if pr.Path != nil {
				for _, tgt := range extendByPath(next, pr.Path) {
					tgt.ValueUsed = true
				}
			}
		}
		cur = next
	}
	return cur
}

func stepName(st *xpath.Step) string {
	switch st.Kind {
	case xpath.AttrTest:
		return "@" + st.Name
	case xpath.TextTest:
		return "#text"
	default:
		return st.Name
	}
}

// Classify determines the disposition of a primitive against the view. The
// store provides the pre-update state to resolve target paths.
func (t *Tree) Classify(s *xmldoc.Store, p *update.Primitive) Disposition {
	root, ok := t.Docs[p.Doc]
	if !ok {
		return Irrelevant
	}
	path := update.TargetPath(s, p)
	best := Irrelevant
	t.walk(root, path, p, &best)
	return best
}

// walk matches path against the trie rooted at n, updating *best with the
// strongest disposition found across all match traces.
func (t *Tree) walk(n *Node, path []string, p *update.Primitive, best *Disposition) {
	if len(path) == 0 {
		// Target sits exactly at a trie node.
		raise(best, atNode(n, p))
		return
	}
	head, rest := path[0], path[1:]
	matched := false
	if c, ok := n.Children[head]; ok {
		matched = true
		t.walk(c, rest, p, best)
	}
	if c, ok := n.Children["*"]; ok {
		matched = true
		t.walk(c, rest, p, best)
	}
	// Descendant edges may match this component or any deeper one.
	for name, c := range n.Desc {
		for i := 0; i < len(path); i++ {
			if path[i] == name || name == "*" {
				matched = true
				t.walk(c, path[i+1:], p, best)
			}
		}
		_ = c
	}
	if !matched {
		// Target lies below node n (or diverges entirely).
		raise(best, belowNode(n, p))
	}
}

// atNode classifies a primitive whose target is exactly a trie node.
func atNode(n *Node, p *update.Primitive) Disposition {
	if p.Kind == update.Replace {
		if n.ValueUsed {
			return Rewrite
		}
		if n.Exposed {
			return Pass
		}
		return Irrelevant
	}
	// Insert/Delete at a navigation point: structural, handled natively by
	// the delta navigation — unless the node's value feeds a predicate and
	// it is not itself an unnest anchor.
	if n.ForTarget || forTargetBelow(n) {
		if n.ValueUsed && !n.ForTarget {
			return Rewrite
		}
		return Pass
	}
	if n.ValueUsed {
		return Rewrite
	}
	if n.Exposed {
		return Pass
	}
	// Inserting at a trie node whose deeper paths are used (e.g. inserting a
	// fragment that contains used descendants) is still relevant.
	if usedBelow(n) {
		return Rewrite
	}
	return Irrelevant
}

// belowNode classifies a primitive whose target lies strictly below the
// deepest matched trie node.
func belowNode(n *Node, p *update.Primitive) Disposition {
	if n.ValueUsed {
		return Rewrite
	}
	// Conservative: descendant-axis edges below n may reach into the
	// changed region; rewriting keeps propagation sound.
	if len(n.Desc) > 0 {
		if descUsed(n) {
			return Rewrite
		}
	}
	if n.Exposed {
		return Pass
	}
	return Irrelevant
}

func raise(best *Disposition, d Disposition) {
	if d > *best {
		*best = d
	}
}

func forTargetBelow(n *Node) bool {
	for _, c := range n.Children {
		if c.ForTarget || forTargetBelow(c) {
			return true
		}
	}
	for _, c := range n.Desc {
		if c.ForTarget || forTargetBelow(c) {
			return true
		}
	}
	return false
}

func usedBelow(n *Node) bool {
	for _, c := range n.Children {
		if c.ValueUsed || c.Exposed || usedBelow(c) {
			return true
		}
	}
	for _, c := range n.Desc {
		if c.ValueUsed || c.Exposed || usedBelow(c) {
			return true
		}
	}
	return false
}

func descUsed(n *Node) bool {
	for _, c := range n.Desc {
		if c.ValueUsed || c.Exposed || usedBelow(c) {
			return true
		}
	}
	return false
}

// Merge unions several SAPTs into one: a path is relevant/sensitive to the
// merged tree iff it is to any input tree. A batch validated against the
// merged tree is sound for every participating view (rewrites become
// union-conservative).
func Merge(trees ...*Tree) *Tree {
	out := &Tree{Docs: map[string]*Node{}}
	for _, t := range trees {
		if t == nil {
			continue
		}
		for doc, root := range t.Docs {
			dst, ok := out.Docs[doc]
			if !ok {
				dst = newNode(doc)
				out.Docs[doc] = dst
			}
			mergeNode(dst, root)
		}
	}
	return out
}

func mergeNode(dst, src *Node) {
	dst.ForTarget = dst.ForTarget || src.ForTarget
	dst.ValueUsed = dst.ValueUsed || src.ValueUsed
	dst.Exposed = dst.Exposed || src.Exposed
	for name, c := range src.Children {
		mergeNode(dst.child(name), c)
	}
	for name, c := range src.Desc {
		mergeNode(dst.descChild(name), c)
	}
}

// IsForTargetPath reports whether the given name path lands exactly on a
// Navigate Unnest target in the given document's trie.
func (t *Tree) IsForTargetPath(path []string, doc string) bool {
	root, ok := t.Docs[doc]
	if !ok {
		return false
	}
	found := false
	var walk func(n *Node, path []string)
	walk = func(n *Node, path []string) {
		if found {
			return
		}
		if len(path) == 0 {
			if n.ForTarget {
				found = true
			}
			return
		}
		head := path[0]
		if c, ok := n.Children[head]; ok {
			walk(c, path[1:])
		}
		if c, ok := n.Children["*"]; ok {
			walk(c, path[1:])
		}
		for name, c := range n.Desc {
			for i := 0; i < len(path); i++ {
				if path[i] == name || name == "*" {
					walk(c, path[i+1:])
				}
			}
		}
	}
	walk(root, path)
	return found
}

// Dump renders the SAPT for diagnostics.
func (t *Tree) Dump() string {
	var b strings.Builder
	var walk func(n *Node, depth int, desc bool)
	walk = func(n *Node, depth int, desc bool) {
		prefix := strings.Repeat("  ", depth)
		axis := "/"
		if desc {
			axis = "//"
		}
		flags := ""
		if n.ForTarget {
			flags += " for"
		}
		if n.ValueUsed {
			flags += " value"
		}
		if n.Exposed {
			flags += " exposed"
		}
		fmt.Fprintf(&b, "%s%s%s%s\n", prefix, axis, n.Name, flags)
		for _, c := range n.Children {
			walk(c, depth+1, false)
		}
		for _, c := range n.Desc {
			walk(c, depth+1, true)
		}
	}
	for doc, root := range t.Docs {
		fmt.Fprintf(&b, "doc %s:\n", doc)
		walk(root, 1, false)
	}
	return b.String()
}

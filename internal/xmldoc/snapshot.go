package xmldoc

import (
	"fmt"
	"slices"
	"strings"

	"xqview/internal/flexkey"
)

// Snap is one immutable version of the store: the root of a persistent
// hash trie holding one record per node (trie.go), the document roots and
// the document sequence. Nothing in a Snap is ever written — a round builds
// the next version in a Draft and Freeze path-copies it into a new root —
// so any number of readers can hold and read one while later versions are
// committed behind them, and capturing a version is taking its pointer.
type Snap struct {
	root   entry
	roots  map[string]flexkey.Key // shared by every version until a load
	docSeq int
}

// Node implements Reader.
func (sn *Snap) Node(k flexkey.Key) (*Node, bool) {
	n := sn.root.get(k, hashKey(k))
	return n, n != nil
}

// Children implements Reader.
func (sn *Snap) Children(k flexkey.Key) []flexkey.Key { return childKeys(sn.Node(k)) }

// Attrs implements Reader.
func (sn *Snap) Attrs(k flexkey.Key) []flexkey.Key { return attrKeys(sn.Node(k)) }

// Root implements Reader.
func (sn *Snap) Root(doc string) (flexkey.Key, bool) {
	k, ok := sn.roots[doc]
	return k, ok
}

// RootElem returns the root element key of a document.
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

// Docs returns the names of all registered documents, sorted.
func (sn *Snap) Docs() []string {
	out := make([]string, 0, len(sn.roots))
	for d := range sn.roots {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// Parent returns the parent key of k ("" for document nodes and absent
// keys): a stored key's prefix.
func (sn *Snap) Parent(k flexkey.Key) flexkey.Key {
	if _, ok := sn.Node(k); !ok {
		return ""
	}
	p, _ := flexkey.Parent(k)
	return p
}

// NextSibling returns the key after k among its parent's children ("" when
// k is last or absent).
func (sn *Snap) NextSibling(k flexkey.Key) flexkey.Key {
	cs := sn.Children(sn.Parent(k))
	if i := slices.Index(cs, k); i >= 0 && i+1 < len(cs) {
		return cs[i+1]
	}
	return ""
}

// Size returns the number of stored nodes.
func (sn *Snap) Size() int {
	n := 0
	sn.root.each(topShift, func(*Node) { n++ })
	return n
}

// DebugDump renders the version deterministically — every document tree in
// key order with kinds, names, values and parent links, then the stored node
// count and the document sequence — so tests can assert byte-identity
// between two states (e.g. pre-round vs post-rollback). Unreachable nodes
// show up through the size line.
func (sn *Snap) DebugDump() string {
	var b strings.Builder
	var walk func(k flexkey.Key, depth int)
	walk = func(k flexkey.Key, depth int) {
		n, _ := sn.Node(k)
		fmt.Fprintf(&b, "%s%s kind=%d name=%q value=%q parent=%s\n",
			strings.Repeat(" ", depth), k, int(n.Kind), n.Name, n.Value, sn.Parent(k))
		for _, a := range n.Attrs {
			walk(a, depth+1)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, doc := range sn.Docs() {
		root := sn.roots[doc]
		fmt.Fprintf(&b, "doc %s root=%s\n", doc, root)
		walk(root, 1)
	}
	fmt.Fprintf(&b, "size=%d docSeq=%d\n", sn.Size(), sn.docSeq)
	return b.String()
}

package xmldoc

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"xqview/internal/flexkey"
)

// Reader is the read-side contract of the storage manager. The query engine
// and the propagate phase only require Reader; a Store, a Snap and a Draft
// all implement it.
//
// Read-only contract: everything a Reader returns stays owned by the
// reader. Node returns the reader's one record of a node, and Children and
// Attrs return that record's key slices (handed out directly to keep
// navigation allocation-free) — callers must not modify the returned slices
// or nodes, and must not retain them across a mutation of a Draft.
// Implementations are free to return shared state under this contract;
// callers that need a private copy make one. The readonly test at the repository root verifies the engine's
// materialize and propagate paths uphold this.
type Reader interface {
	// Node returns the node stored under k. The node is owned by the
	// reader; callers must not modify it.
	Node(k flexkey.Key) (*Node, bool)
	// Children returns the element/text children of k in document order:
	// the Children of k's record, nil when k is absent.
	Children(k flexkey.Key) []flexkey.Key
	// Attrs returns the attribute nodes of k in stored order: the Attrs of
	// k's record, nil when k is absent.
	Attrs(k flexkey.Key) []flexkey.Key
	// Root returns the root element key of a registered document.
	Root(doc string) (flexkey.Key, bool)
}

// Store is the in-memory storage manager. It guarantees the MASS contract
// the algorithms rely on: children/descendant retrieval in document order
// and FlexKeys that stay stable under updates. It keeps one record per node
// (the node with its child and attribute keys) and the document roots;
// a node's parent is its key's prefix, so no other index exists.
//
// Versioning contract: a Store is written only by Install, which lays a
// Draft's Delta over it with map writes. No stored *Node or key slice is
// ever written in place — a change installs a fresh record — so a Clone, a
// Snap base or a Reader alias keeps reading exactly the state it saw.
//
// Concurrency contract: the Store is not internally synchronized. The
// maintenance pipeline relies on a phase discipline instead: the store is
// strictly read-only for the whole round (validate, source refresh into the
// round's Draft, propagation), which makes it safe to share across
// concurrently maintained views; the round's commit installs the draft.
type Store struct {
	nodes  map[flexkey.Key]*Node
	roots  map[string]flexkey.Key
	docSeq int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{nodes: map[flexkey.Key]*Node{}, roots: map[string]flexkey.Key{}}
}

// LoadFragment registers a document whose content is the given root element
// fragment and returns the root key. The document is built in a draft and
// installed.
func (s *Store) LoadFragment(doc string, root *Frag) (flexkey.Key, error) {
	d := NewDraft(s)
	k, err := d.LoadFragment(doc, root)
	if err != nil {
		return "", err
	}
	s.Install(d.Delta())
	return k, nil
}

// Load parses src as XML and registers it under doc.
func (s *Store) Load(doc, src string) (flexkey.Key, error) {
	f, err := Parse(src)
	if err != nil {
		return "", fmt.Errorf("xmldoc: parsing %q: %w", doc, err)
	}
	return s.LoadFragment(doc, f)
}

// Install makes a draft's delta the store's state: every post-image it
// holds replaces the store's record, and every deletion marker deletes it.
// The delta's records become the store's own, shared with the delta (neither
// is ever written again).
func (s *Store) Install(d *Delta) {
	for k, n := range d.nodes {
		if n == nil {
			delete(s.nodes, k)
		} else {
			s.nodes[k] = n
		}
	}
	for doc, r := range d.roots {
		if r == "" {
			delete(s.roots, doc)
		} else {
			s.roots[doc] = r
		}
	}
	s.docSeq = d.docSeq
}

// RootElem returns the root element key of a document.
func (s *Store) RootElem(doc string) (flexkey.Key, bool) {
	d, ok := s.roots[doc]
	if !ok {
		return "", false
	}
	cs := s.Children(d)
	if len(cs) == 0 {
		return "", false
	}
	return cs[0], true
}

// Node implements Reader.
func (s *Store) Node(k flexkey.Key) (*Node, bool) {
	n, ok := s.nodes[k]
	return n, ok
}

// Children implements Reader.
func (s *Store) Children(k flexkey.Key) []flexkey.Key { return childKeys(s.Node(k)) }

// Attrs implements Reader.
func (s *Store) Attrs(k flexkey.Key) []flexkey.Key { return attrKeys(s.Node(k)) }

// childKeys, attrKeys and parentKey read one record, as the Children, Attrs
// and Parent of Store and Snap do: an absent node has none of them.
func childKeys(n *Node, ok bool) []flexkey.Key {
	if !ok {
		return nil
	}
	return n.Children
}

func attrKeys(n *Node, ok bool) []flexkey.Key {
	if !ok {
		return nil
	}
	return n.Attrs
}

func parentKey(n *Node, ok bool) flexkey.Key {
	if !ok {
		return ""
	}
	p, _ := flexkey.Parent(n.Key)
	return p
}

// Root implements Reader.
func (s *Store) Root(doc string) (flexkey.Key, bool) {
	k, ok := s.roots[doc]
	return k, ok
}

// Docs returns the names of all registered documents.
func (s *Store) Docs() []string {
	out := make([]string, 0, len(s.roots))
	for d := range s.roots {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Parent returns the parent key of k ("" for document nodes and absent
// keys): a stored key's prefix.
func (s *Store) Parent(k flexkey.Key) flexkey.Key { return parentKey(s.Node(k)) }

// Siblings returns the keys immediately before and after k among its
// parent's children ("" when k is first/last).
func (s *Store) Siblings(k flexkey.Key) (prev, next flexkey.Key) {
	p := s.Parent(k)
	if p == "" {
		return "", ""
	}
	cs := s.Children(p)
	for i, c := range cs {
		if c == k {
			if i > 0 {
				prev = cs[i-1]
			}
			if i+1 < len(cs) {
				next = cs[i+1]
			}
			return prev, next
		}
	}
	return "", ""
}

// Clone returns a store with the same state. Stored records are never
// written in place, so the clone copies the two maps and shares their
// values; installing a delta on either store leaves the other as it was.
func (s *Store) Clone() *Store {
	return &Store{nodes: maps.Clone(s.nodes), roots: maps.Clone(s.roots), docSeq: s.docSeq}
}

// Size returns the number of stored nodes.
func (s *Store) Size() int { return len(s.nodes) }

// DebugDump renders the complete store state deterministically — every
// document tree in key order with kinds, names, values and parent links, plus the total node count and document sequence — so tests can
// assert byte-identity between two store states (e.g. pre-round vs
// post-rollback). Unreachable nodes show up through the size line.
func (s *Store) DebugDump() string {
	return dump(s) + fmt.Sprintf("size=%d docSeq=%d\n", len(s.nodes), s.docSeq)
}

// DumpPrefix renders the live store in DebugDump's document format plus the
// docSeq line but without the size line, byte-comparable to Snap.DebugDump.
func (s *Store) DumpPrefix() string {
	return dump(s) + fmt.Sprintf("docSeq=%d\n", s.docSeq)
}

// dump renders the documents of r in key order: the part of a DebugDump a
// Store and a Snap share.
func dump(r interface {
	Reader
	Docs() []string
	Parent(flexkey.Key) flexkey.Key
}) string {
	var b strings.Builder
	var walk func(k flexkey.Key, depth int)
	walk = func(k flexkey.Key, depth int) {
		n, _ := r.Node(k)
		fmt.Fprintf(&b, "%s%s kind=%d name=%q value=%q parent=%s\n",
			strings.Repeat(" ", depth), k, int(n.Kind), n.Name, n.Value, r.Parent(k))
		for _, a := range n.Attrs {
			walk(a, depth+1)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, doc := range r.Docs() {
		root, _ := r.Root(doc)
		fmt.Fprintf(&b, "doc %s root=%s\n", doc, root)
		walk(root, 1)
	}
	return b.String()
}

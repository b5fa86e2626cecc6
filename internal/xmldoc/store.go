package xmldoc

import (
	"fmt"

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
// callers that need a private copy make one. The readonly test at the
// repository root verifies the engine's materialize and propagate paths
// uphold this.
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
// A Store is the mutable holder of the current version: it reads as its
// Snap, and committing a version is assigning Snap the root a Draft froze.
// Versions are immutable, so a published Snap, a Reader alias or a handed-out
// record keeps reading exactly the state it saw.
//
// Concurrency contract: the Store is not internally synchronized. The
// maintenance pipeline relies on a phase discipline instead: the store is
// strictly read-only for the whole round (validate, source refresh into the
// round's Draft, propagation), which makes it safe to share across
// concurrently maintained views; the round's commit swaps in the next root.
type Store struct {
	*Snap
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{Snap: &Snap{}} }

// LoadFragment registers a document whose content is the given root element
// fragment and returns the root key. The document is built in a draft and
// committed.
func (s *Store) LoadFragment(doc string, root *Frag) (flexkey.Key, error) {
	d := NewDraft(s)
	k, err := d.LoadFragment(doc, root)
	if err != nil {
		return "", err
	}
	s.Snap = d.Freeze()
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

// childKeys and attrKeys read one record, as Children and Attrs do: an
// absent node has neither.
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

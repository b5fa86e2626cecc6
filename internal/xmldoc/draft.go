package xmldoc

import (
	"fmt"
	"slices"
	"sort"

	"xqview/internal/flexkey"
)

// Delta is one round's change to the store: post-images of exactly the keys
// the round touched. It is the store's one versioning structure — a Draft
// writes it, propagation reads it through the Draft, Snap.Extend layers it
// over the previous version, and Store.Install makes it the store's state.
// Every node and slice in it was allocated by its draft, never borrowed from
// the store, and none is written once the draft is done.
//
// Deletion markers: a nil *Node or key slice means the key was deleted,
// and parent and roots use "" as the deleted value (no legal key is empty).
// A live node whose children were all removed holds an empty, non-nil slice.
type Delta struct {
	nodes    map[flexkey.Key]*Node
	children map[flexkey.Key][]flexkey.Key
	attrs    map[flexkey.Key][]flexkey.Key
	parent   map[flexkey.Key]flexkey.Key
	roots    map[string]flexkey.Key
	docSeq   int
}

// Empty reports whether the delta masks no keys at all (a round that
// refreshed no documents).
func (d *Delta) Empty() bool { return d.Len() == 0 }

// Len returns how many keys the delta masks, for telemetry.
func (d *Delta) Len() int {
	return len(d.nodes) + len(d.children) + len(d.attrs) + len(d.parent) + len(d.roots)
}

// Draft is the store's next version while a round builds it: the live
// Store, which the draft never writes, plus one Delta its mutators write
// copy-on-write. Dropping a draft rolls the round back; Store.Install
// commits it.
//
// As a Reader a draft is the post-update state propagation needs: inserted
// fragments, replaced values and unlinked deletions are visible, yet a
// deleted subtree stays readable by key (its deletion markers read through
// to the pre-round store), which is what lets a delete region navigate the
// content it removes. The draft is read-only once source refresh ends, so
// any number of views may propagate over it at once.
type Draft struct {
	Snap
	delta *Delta
}

// NewDraft opens the next version of s.
func NewDraft(s *Store) *Draft {
	d := &Delta{
		nodes:    map[flexkey.Key]*Node{},
		children: map[flexkey.Key][]flexkey.Key{},
		attrs:    map[flexkey.Key][]flexkey.Key{},
		parent:   map[flexkey.Key]flexkey.Key{},
		roots:    map[string]flexkey.Key{},
		docSeq:   s.docSeq,
	}
	return &Draft{Snap: Snap{base: s, deltas: []*Delta{d}, draft: true}, delta: d}
}

// Delta returns what the draft wrote.
func (d *Draft) Delta() *Delta { return d.delta }

// The mutators read the draft as the next version (live): a deletion marker
// hides its key, exactly as a Snap over the installed delta would.

// LoadFragment registers a document whose content is the given root element
// fragment and returns the root key.
func (d *Draft) LoadFragment(doc string, root *Frag) (flexkey.Key, error) {
	if root == nil || root.Kind != Element {
		return "", fmt.Errorf("xmldoc: document %q root must be an element", doc)
	}
	if _, ok := d.Root(doc); ok {
		return "", fmt.Errorf("xmldoc: document %q already loaded", doc)
	}
	dl := d.delta
	docKey := flexkey.Key(flexkey.Segment(dl.docSeq))
	dl.docSeq++
	dl.roots[doc] = docKey
	dl.nodes[docKey] = &Node{Key: docKey, Kind: Document, Name: doc, Count: 1}
	rootKey := flexkey.Child(docKey, 0)
	dl.children[docKey] = []flexkey.Key{rootKey}
	d.insertFragAt(rootKey, docKey, root)
	return rootKey, nil
}

// insertFragAt stores fragment f under key k with parent p, recursively
// assigning gapped child keys.
func (d *Draft) insertFragAt(k, p flexkey.Key, f *Frag) {
	dl := d.delta
	dl.nodes[k] = &Node{Key: k, Kind: f.Kind, Name: f.Name, Value: f.Value, Count: 1}
	dl.parent[k] = p
	if len(f.Attrs) > 0 {
		as := make([]flexkey.Key, len(f.Attrs))
		for i, a := range f.Attrs {
			ak := flexkey.Append(k, "@"+flexkey.Segment(i))
			dl.nodes[ak] = &Node{Key: ak, Kind: Attr, Name: a.Name, Value: a.Value, Count: 1}
			dl.parent[ak] = k
			as[i] = ak
		}
		dl.attrs[k] = as
	}
	if len(f.Children) > 0 {
		cs := make([]flexkey.Key, len(f.Children))
		for i := range f.Children {
			cs[i] = flexkey.Child(k, i)
		}
		dl.children[k] = cs
		for i, c := range f.Children {
			d.insertFragAt(cs[i], k, c)
		}
	}
}

// InsertFragment inserts fragment f as a child of parent, positioned
// between siblings after and before (either may be "" for begin/end) and
// after every child already there, so inserts at one position keep the
// order they were made in and both bounds empty appends. It returns the key
// assigned to the fragment root.
func (d *Draft) InsertFragment(parent flexkey.Key, after, before flexkey.Key, f *Frag) (flexkey.Key, error) {
	for _, c := range d.children(parent, false) {
		if c > after && (before == "" || c < before) {
			after = c
		}
	}
	k := flexkey.SiblingBetween(parent, after, before)
	if err := d.InsertFragmentWithKey(parent, k, f); err != nil {
		return "", err
	}
	return k, nil
}

// InsertFragmentWithKey inserts a fragment whose root key was already
// assigned (during update validation, so that the round's regions, the
// propagated view and the refreshed store agree on keys).
func (d *Draft) InsertFragmentWithKey(parent, k flexkey.Key, f *Frag) error {
	if _, ok := d.node(parent, false); !ok {
		return fmt.Errorf("xmldoc: insert under missing parent %s", parent)
	}
	if _, exists := d.node(k, false); exists {
		return fmt.Errorf("xmldoc: key %s already in use", k)
	}
	cs, owned := d.delta.children[parent]
	if !owned {
		bs := d.base.children[parent]
		cs = append(make([]flexkey.Key, 0, len(bs)+1), bs...)
	}
	i := sort.Search(len(cs), func(i int) bool { return cs[i] >= k })
	cs = append(cs, "")
	copy(cs[i+1:], cs[i:])
	cs[i] = k
	d.delta.children[parent] = cs
	d.insertFragAt(k, parent, f)
	return nil
}

// DeleteSubtree removes the node k and its entire subtree, leaving a
// deletion marker for every key of it.
func (d *Draft) DeleteSubtree(k flexkey.Key) error {
	if _, ok := d.node(k, false); !ok {
		return fmt.Errorf("xmldoc: delete of missing node %s", k)
	}
	if p := d.parent(k, false); p != "" {
		if !unlink(d.delta.children, d.base.children, p, k) {
			unlink(d.delta.attrs, d.base.attrs, p, k)
		}
	}
	d.deleteRec(k)
	return nil
}

// unlink removes k from p's keys in one index of a draft (children or
// attrs: the delta's, over the store's), reporting whether k was there. The
// store's slice is copied before the write; the delta's is its own. The
// result is never nil, so it cannot read as a deletion marker.
func unlink(delta, base map[flexkey.Key][]flexkey.Key, p, k flexkey.Key) bool {
	ks, owned := delta[p]
	if !owned {
		ks = base[p]
	}
	i := slices.Index(ks, k)
	if i < 0 {
		return false
	}
	if !owned {
		ks = slices.Clone(ks)
	}
	delta[p] = append(ks[:i], ks[i+1:]...)
	return true
}

func (d *Draft) deleteRec(k flexkey.Key) {
	for _, c := range d.children(k, false) {
		d.deleteRec(c)
	}
	for _, a := range d.attrs(k, false) {
		d.deleteRec(a)
	}
	dl := d.delta
	dl.nodes[k] = nil
	dl.children[k] = nil
	dl.attrs[k] = nil
	dl.parent[k] = ""
}

// ReplaceText replaces the value of the text or attribute node k.
func (d *Draft) ReplaceText(k flexkey.Key, v string) error {
	n, ok := d.node(k, false)
	if !ok {
		return fmt.Errorf("xmldoc: replace of missing node %s", k)
	}
	if n.Kind == Element {
		return fmt.Errorf("xmldoc: replace target %s is an element", k)
	}
	cp := *n
	cp.Value = v
	d.delta.nodes[k] = &cp
	return nil
}

package xmldoc

import (
	"fmt"
	"slices"

	"xqview/internal/flexkey"
)

// Delta is one round's change to the store: the post-image records of
// exactly the nodes the round touched, and the document roots it registered.
// It is the store's one versioning structure — a Draft writes it,
// propagation reads it through the Draft, Snap.Extend layers it over the
// previous version, and Store.Install makes it the store's state. Every
// record and key slice in it was allocated by its draft, never borrowed from
// the store, and none is written once the draft is done.
//
// Deletion markers: a nil *Node means the node was deleted, and roots uses
// "" as the deleted value (no legal key is empty).
type Delta struct {
	nodes  map[flexkey.Key]*Node
	roots  map[string]flexkey.Key
	docSeq int
}

// Empty reports whether the delta holds no records at all (a round that
// refreshed no documents).
func (d *Delta) Empty() bool { return d.Len() == 0 }

// Len returns how many node and root records the delta holds, for telemetry.
func (d *Delta) Len() int { return len(d.nodes) + len(d.roots) }

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
	d := &Delta{nodes: map[flexkey.Key]*Node{}, roots: map[string]flexkey.Key{}, docSeq: s.docSeq}
	return &Draft{Snap: Snap{base: s, deltas: []*Delta{d}, draft: true}, delta: d}
}

// Delta returns what the draft wrote.
func (d *Draft) Delta() *Delta { return d.delta }

// The mutators read the draft as the next version (live): a deletion marker
// hides its key, exactly as a Snap over the installed delta would.

// own returns the draft's writable post-image of the live node k. The first
// touch copies the stored record with key slices of its own — the stored
// ones are shared with every published Snap — and room for one more child,
// so a first insert does not reallocate; later edits in the same draft
// change that post-image in place.
func (d *Draft) own(k flexkey.Key) (*Node, bool) {
	if n, ok := d.delta.nodes[k]; ok {
		return n, n != nil
	}
	n, ok := d.base.nodes[k]
	if !ok {
		return nil, false
	}
	cp := *n
	if n.Children != nil {
		cp.Children = append(make([]flexkey.Key, 0, len(n.Children)+1), n.Children...)
	}
	cp.Attrs = slices.Clone(n.Attrs)
	d.delta.nodes[k] = &cp
	return &cp, true
}

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
	rootKey := flexkey.Child(docKey, 0)
	dl.nodes[docKey] = &Node{Key: docKey, Kind: Document, Name: doc, Children: []flexkey.Key{rootKey}}
	d.insertFragAt(rootKey, root)
	return rootKey, nil
}

// insertFragAt stores fragment f under key k, one record per node,
// recursively assigning gapped child keys.
func (d *Draft) insertFragAt(k flexkey.Key, f *Frag) {
	n := &Node{Key: k, Kind: f.Kind, Name: f.Name, Value: f.Value}
	d.delta.nodes[k] = n
	if len(f.Attrs) > 0 {
		n.Attrs = make([]flexkey.Key, len(f.Attrs))
		for i, a := range f.Attrs {
			ak := flexkey.Append(k, "@"+flexkey.Segment(i))
			d.delta.nodes[ak] = &Node{Key: ak, Kind: Attr, Name: a.Name, Value: a.Value}
			n.Attrs[i] = ak
		}
	}
	if len(f.Children) > 0 {
		n.Children = make([]flexkey.Key, len(f.Children))
		for i, c := range f.Children {
			n.Children[i] = flexkey.Child(k, i)
			d.insertFragAt(n.Children[i], c)
		}
	}
}

// InsertFragment inserts fragment f as a child of parent, positioned
// between siblings after and before (either may be "" for begin/end) and
// after every child already there, so inserts at one position keep the
// order they were made in and both bounds empty appends. It returns the key
// assigned to the fragment root.
func (d *Draft) InsertFragment(parent flexkey.Key, after, before flexkey.Key, f *Frag) (flexkey.Key, error) {
	for _, c := range childKeys(d.node(parent, false)) {
		if c > after && (before == "" || c < before) {
			after = c
		}
	}
	k := flexkey.SiblingBetween(parent, after, before)
	if err := d.InsertFragmentWithKey(k, f); err != nil {
		return "", err
	}
	return k, nil
}

// InsertFragmentWithKey inserts a fragment whose root key was already
// assigned (during update validation, so that the round's regions, the
// propagated view and the refreshed store agree on keys). The fragment goes
// under the key's prefix, flexkey.Parent(k).
func (d *Draft) InsertFragmentWithKey(k flexkey.Key, f *Frag) error {
	parent, _ := flexkey.Parent(k)
	if _, ok := d.node(parent, false); !ok {
		return fmt.Errorf("xmldoc: insert under missing parent %s", parent)
	}
	if _, exists := d.node(k, false); exists {
		return fmt.Errorf("xmldoc: key %s already in use", k)
	}
	pn, _ := d.own(parent)
	i, _ := slices.BinarySearch(pn.Children, k)
	pn.Children = slices.Insert(pn.Children, i, k)
	d.insertFragAt(k, f)
	return nil
}

// DeleteSubtree removes the node k and its entire subtree from its parent's
// post-image, leaving a deletion marker for every node of it.
func (d *Draft) DeleteSubtree(k flexkey.Key) error {
	n, ok := d.node(k, false)
	if !ok {
		return fmt.Errorf("xmldoc: delete of missing node %s", k)
	}
	if p, ok := flexkey.Parent(k); ok {
		pn, _ := d.own(p)
		if i := slices.Index(pn.Children, k); i >= 0 {
			pn.Children = slices.Delete(pn.Children, i, i+1)
		} else if i := slices.Index(pn.Attrs, k); i >= 0 {
			pn.Attrs = slices.Delete(pn.Attrs, i, i+1)
		}
	}
	d.deleteRec(n)
	return nil
}

func (d *Draft) deleteRec(n *Node) {
	for _, ks := range [2][]flexkey.Key{n.Children, n.Attrs} {
		for _, c := range ks {
			if cn, ok := d.node(c, false); ok {
				d.deleteRec(cn)
			}
		}
	}
	d.delta.nodes[n.Key] = nil
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
	n, _ = d.own(k)
	n.Value = v
	return nil
}

package xmldoc

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"xqview/internal/flexkey"
)

// Draft is the store's next version while a round builds it: the base
// version, which the draft never writes, plus one write map its mutators
// fill copy-on-write with the post-image of exactly the nodes the round
// touched. Every record and key slice in the map was allocated by the draft,
// never borrowed from the base. Dropping a draft rolls the round back;
// Freeze turns it into the next version, after which it is not written.
//
// As a Reader a draft is the post-update state propagation needs: inserted
// fragments, replaced values and unlinked deletions are visible, yet a
// deleted subtree stays readable by key (its deletion markers read through
// to the base), which is what lets a delete region navigate the content it
// removes. The draft is read-only once source refresh ends, so any number of
// views may propagate over it at once.
type Draft struct {
	base   *Snap
	nodes  map[flexkey.Key]*Node  // post-images; nil marks a deletion
	roots  map[string]flexkey.Key // the next version's; a load copies it first
	docSeq int
}

// NewDraft opens the next version of s's current one.
func NewDraft(s *Store) *Draft {
	return &Draft{base: s.Snap, nodes: map[flexkey.Key]*Node{}, roots: s.roots, docSeq: s.docSeq}
}

// Len returns how many node records the draft wrote, deletion markers
// included.
func (d *Draft) Len() int { return len(d.nodes) }

// Node implements Reader: a written key reads its post-image, and any other
// key — a deleted one included — reads the base.
func (d *Draft) Node(k flexkey.Key) (*Node, bool) {
	if n := d.nodes[k]; n != nil {
		return n, true
	}
	return d.base.Node(k)
}

// Children implements Reader.
func (d *Draft) Children(k flexkey.Key) []flexkey.Key { return childKeys(d.Node(k)) }

// Attrs implements Reader.
func (d *Draft) Attrs(k flexkey.Key) []flexkey.Key { return attrKeys(d.Node(k)) }

// Root implements Reader.
func (d *Draft) Root(doc string) (flexkey.Key, bool) {
	k, ok := d.roots[doc]
	return k, ok
}

// Freeze returns the version the draft describes: the base's trie with
// every write applied, sorted by hash so each node on the writes' paths is
// copied once. A draft nothing was written to freezes to its base.
func (d *Draft) Freeze() *Snap {
	if len(d.nodes) == 0 {
		return d.base
	}
	ws := make([]write, 0, len(d.nodes))
	for k, n := range d.nodes {
		ws = append(ws, write{h: hashKey(k), k: k, n: n})
	}
	slices.SortFunc(ws, func(a, b write) int { return cmp.Compare(a.h, b.h) })
	return &Snap{root: put(d.base.root, ws, topShift, hashKey), roots: d.roots, docSeq: d.docSeq}
}

// The mutators read the draft as the next version (live): a deletion
// marker hides its key.
func (d *Draft) live(k flexkey.Key) (*Node, bool) {
	if n, ok := d.nodes[k]; ok {
		return n, n != nil
	}
	return d.base.Node(k)
}

// own returns the draft's writable post-image of the live node k. The first
// touch copies the stored record with key slices of its own — the stored
// ones are shared with every published Snap — and room for one more child,
// so a first insert does not reallocate; later edits in the same draft
// change that post-image in place.
func (d *Draft) own(k flexkey.Key) (*Node, bool) {
	if n, ok := d.nodes[k]; ok {
		return n, n != nil
	}
	n, ok := d.base.Node(k)
	if !ok {
		return nil, false
	}
	cp := *n
	if n.Children != nil {
		cp.Children = append(make([]flexkey.Key, 0, len(n.Children)+1), n.Children...)
	}
	cp.Attrs = slices.Clone(n.Attrs)
	d.nodes[k] = &cp
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
	roots := make(map[string]flexkey.Key, len(d.roots)+1)
	maps.Copy(roots, d.roots)
	docKey := flexkey.Key(flexkey.Segment(d.docSeq))
	d.docSeq++
	roots[doc], d.roots = docKey, roots
	rootKey := flexkey.Child(docKey, 0)
	d.nodes[docKey] = &Node{Key: docKey, Kind: Document, Name: doc, Children: []flexkey.Key{rootKey}}
	d.insertFragAt(rootKey, root)
	return rootKey, nil
}

// insertFragAt stores fragment f under key k, one record per node,
// recursively assigning gapped child keys.
func (d *Draft) insertFragAt(k flexkey.Key, f *Frag) {
	n := &Node{Key: k, Kind: f.Kind, Name: f.Name, Value: f.Value}
	d.nodes[k] = n
	if len(f.Attrs) > 0 {
		n.Attrs = make([]flexkey.Key, len(f.Attrs))
		for i, a := range f.Attrs {
			ak := flexkey.Append(k, "@"+flexkey.Segment(i))
			d.nodes[ak] = &Node{Key: ak, Kind: Attr, Name: a.Name, Value: a.Value}
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
	for _, c := range childKeys(d.live(parent)) {
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
	if _, ok := d.live(parent); !ok {
		return fmt.Errorf("xmldoc: insert under missing parent %s", parent)
	}
	if _, exists := d.live(k); exists {
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
	n, ok := d.live(k)
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
			if cn, ok := d.live(c); ok {
				d.deleteRec(cn)
			}
		}
	}
	d.nodes[n.Key] = nil
}

// ReplaceText replaces the value of the text or attribute node k.
func (d *Draft) ReplaceText(k flexkey.Key, v string) error {
	n, ok := d.live(k)
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

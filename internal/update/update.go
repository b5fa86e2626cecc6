// Package update models source XML updates (Ch 5): the insert / delete /
// replace primitives, batches of heterogeneous updates, and a
// parser/evaluator for the XQuery update language of [TIHW01] used in the
// dissertation's examples (Fig 1.3).
package update

import (
	"fmt"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

// Kind is the primitive update type.
type Kind int

const (
	// Insert adds a new fragment under Parent between After and Before.
	Insert Kind = iota
	// Delete removes the fragment rooted at Key.
	Delete
	// Replace changes the value of the text or attribute node Key.
	Replace
)

func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Replace:
		return "replace"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Primitive is one source update (Sec 5.1). For Insert, Parent/After/Before
// position the fragment and Key is assigned during validation; for Delete
// and Replace, Key is the target node.
type Primitive struct {
	Kind Kind
	Doc  string

	Parent flexkey.Key // Insert: parent node
	After  flexkey.Key // Insert: left sibling ("" = first)
	Before flexkey.Key // Insert: right sibling ("" = last)
	Frag   *xmldoc.Frag

	Key      flexkey.Key // target (delete/replace) or assigned root (insert)
	NewValue string      // Replace
}

func (p *Primitive) String() string {
	switch p.Kind {
	case Insert:
		return fmt.Sprintf("insert into %s under %s key=%s", p.Doc, p.Parent, p.Key)
	case Delete:
		return fmt.Sprintf("delete %s from %s", p.Key, p.Doc)
	case Replace:
		return fmt.Sprintf("replace %s in %s with %q", p.Key, p.Doc, p.NewValue)
	}
	return "?"
}

// NormalizePosition defaults a bound-less insert (no After/Before) to
// appending after the parent's current last child, so successive appends
// receive distinct keys.
func NormalizePosition(s *xmldoc.Store, p *Primitive) {
	if p.Kind != Insert || p.After != "" || p.Before != "" {
		return
	}
	cs := s.Children(p.Parent)
	if len(cs) > 0 {
		p.After = cs[len(cs)-1]
	}
}

// ApplyToStore applies a primitive to a draft of the source store (source
// refresh: the round's next store version). An insert that already carries
// its assigned Key (from validation) lands there, so the store and the
// propagated view agree on identifiers; one without gets a key here.
func ApplyToStore(d *xmldoc.Draft, p *Primitive) error {
	switch p.Kind {
	case Insert:
		if p.Key == "" {
			k, err := d.InsertFragment(p.Parent, p.After, p.Before, p.Frag)
			p.Key = k
			return err
		}
		return d.InsertFragmentWithKey(p.Key, p.Frag)
	case Delete:
		return d.DeleteSubtree(p.Key)
	case Replace:
		return d.ReplaceText(p.Key, p.NewValue)
	}
	return fmt.Errorf("update: unknown primitive kind %d", p.Kind)
}

// PathNames returns the name path of a node from its document root:
// element names, "@name" for attributes, "#text" for text nodes. The first
// component is the root element's name.
func PathNames(s *xmldoc.Store, k flexkey.Key) []string {
	var names []string
	for k != "" {
		n, ok := s.Node(k)
		if !ok {
			break
		}
		switch n.Kind {
		case xmldoc.Document:
			// stop above the root element
		case xmldoc.Attr:
			names = append(names, "@"+n.Name)
		case xmldoc.Text:
			names = append(names, "#text")
		default:
			names = append(names, n.Name)
		}
		k = s.Parent(k)
	}
	// reverse
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// TargetPath returns the name path the primitive affects: for inserts the
// parent path plus the fragment root's name; for deletes/replaces the
// target's path.
func TargetPath(s *xmldoc.Store, p *Primitive) []string {
	switch p.Kind {
	case Insert:
		base := PathNames(s, p.Parent)
		name := p.Frag.Name
		switch p.Frag.Kind {
		case xmldoc.Attr:
			name = "@" + p.Frag.Name
		case xmldoc.Text:
			name = "#text"
		}
		return append(base, name)
	default:
		return PathNames(s, p.Key)
	}
}

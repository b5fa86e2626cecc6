package xmldoc

import (
	"strings"

	"xqview/internal/flexkey"
)

// ChildElems returns the element children of k named name (or all element
// children when name == "*"), in document order.
func ChildElems(r Reader, k flexkey.Key, name string) []flexkey.Key {
	var out []flexkey.Key
	for _, c := range r.Children(k) {
		n, ok := r.Node(c)
		if !ok || n.Kind != Element {
			continue
		}
		if name == "*" || n.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// DescendantElems returns all element descendants of k named name (or all
// when name == "*"), in document order.
func DescendantElems(r Reader, k flexkey.Key, name string) []flexkey.Key {
	var out []flexkey.Key
	var walk func([]flexkey.Key)
	walk = func(cs []flexkey.Key) {
		for _, c := range cs {
			if n, ok := r.Node(c); ok && n.Kind == Element {
				if name == "*" || n.Name == name {
					out = append(out, c)
				}
				walk(n.Children)
			}
		}
	}
	walk(r.Children(k))
	return out
}

// Attribute returns the attribute node of k with the given name.
func Attribute(r Reader, k flexkey.Key, name string) (flexkey.Key, bool) {
	for _, a := range r.Attrs(k) {
		if n, ok := r.Node(a); ok && n.Name == name {
			return a, true
		}
	}
	return "", false
}

// TextChildren returns the text-node children of k in document order.
func TextChildren(r Reader, k flexkey.Key) []flexkey.Key {
	var out []flexkey.Key
	for _, c := range r.Children(k) {
		if n, ok := r.Node(c); ok && n.Kind == Text {
			out = append(out, c)
		}
	}
	return out
}

// StringValue returns the XPath string value of a node: for text and
// attribute nodes their value, for elements the concatenation of all
// descendant text in document order.
func StringValue(r Reader, k flexkey.Key) string {
	n, ok := r.Node(k)
	if !ok {
		return ""
	}
	switch n.Kind {
	case Text, Attr:
		return n.Value
	}
	// Fast path: most elements the engine compares by value are leaves with
	// a single text node — return it directly, no builder.
	var text string
	count := 0
	subtreeSingleText(r, n, &text, &count)
	if count <= 1 {
		return text
	}
	var b strings.Builder
	subtreeTextInto(&b, r, n)
	return b.String()
}

// subtreeSingleText scans p's subtree for text nodes, recording the first
// and stopping as soon as a second one is seen.
func subtreeSingleText(r Reader, p *Node, text *string, count *int) {
	for _, c := range p.Children {
		if *count > 1 {
			return
		}
		cn, ok := r.Node(c)
		if !ok {
			continue
		}
		if cn.Kind == Text {
			*count++
			if *count == 1 {
				*text = cn.Value
			} else {
				return
			}
		} else if cn.Kind == Element {
			subtreeSingleText(r, cn, text, count)
		}
	}
}

func subtreeTextInto(b *strings.Builder, r Reader, p *Node) {
	for _, c := range p.Children {
		cn, ok := r.Node(c)
		if !ok {
			continue
		}
		if cn.Kind == Text {
			b.WriteString(cn.Value)
		} else if cn.Kind == Element {
			subtreeTextInto(b, r, cn)
		}
	}
}

// SubtreeFrag extracts the subtree rooted at k as a detached fragment.
func SubtreeFrag(r Reader, k flexkey.Key) *Frag {
	n, ok := r.Node(k)
	if !ok {
		return nil
	}
	f := &Frag{Kind: n.Kind, Name: n.Name, Value: n.Value}
	for _, a := range n.Attrs {
		if an, ok := r.Node(a); ok {
			f.Attrs = append(f.Attrs, &Frag{Kind: Attr, Name: an.Name, Value: an.Value})
		}
	}
	for _, c := range n.Children {
		if cf := SubtreeFrag(r, c); cf != nil {
			f.Children = append(f.Children, cf)
		}
	}
	return f
}

// Serialize renders the subtree at k as compact XML.
func Serialize(r Reader, k flexkey.Key) string {
	f := SubtreeFrag(r, k)
	if f == nil {
		return ""
	}
	return f.String()
}

// SubtreeSize returns the number of nodes (element, text, attr) in the
// subtree rooted at k, including k.
func SubtreeSize(r Reader, k flexkey.Key) int {
	n := 1 + len(r.Attrs(k))
	for _, c := range r.Children(k) {
		n += SubtreeSize(r, c)
	}
	return n
}

// Package xmldoc provides the XML data model and the storage manager the
// query engine and view-maintenance machinery run on. It plays the role of
// the MASS storage system in the dissertation (Ch 3.3): every node is
// addressed by a FlexKey, children and descendants are returned in document
// order, keys remain stable under updates, and skeletons of constructed
// nodes can be stored alongside base documents.
package xmldoc

import (
	"fmt"
	"strings"

	"xqview/internal/flexkey"
)

// Kind classifies a node.
type Kind int

const (
	// Element is an XML element node.
	Element Kind = iota
	// Attr is an attribute node.
	Attr
	// Text is a text node. Atomic values are modeled as text nodes.
	Text
	// Document is the document node above a loaded document's root element
	// (what doc("...") returns).
	Document
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attr:
		return "attribute"
	case Text:
		return "text"
	case Document:
		return "document"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is the one stored record of an XML node. Name is set for elements and
// attributes; Value for attributes and text nodes. Children lists the
// element and text children in key order, which is document order; Attrs
// lists the attribute nodes in stored order. The parent is not stored: it
// is the key's prefix, flexkey.Parent(Key).
type Node struct {
	Key      flexkey.Key
	Kind     Kind
	Name     string
	Value    string
	Children []flexkey.Key
	Attrs    []flexkey.Key
}

// Frag is a detached XML fragment, used to describe content before it is
// inserted into a store (source updates, generated documents, test inputs).
type Frag struct {
	Kind     Kind
	Name     string
	Value    string
	Attrs    []*Frag
	Children []*Frag
}

// Elem builds an element fragment.
func Elem(name string, children ...*Frag) *Frag {
	f := &Frag{Kind: Element, Name: name}
	for _, c := range children {
		if c.Kind == Attr {
			f.Attrs = append(f.Attrs, c)
		} else {
			f.Children = append(f.Children, c)
		}
	}
	return f
}

// TextF builds a text fragment.
func TextF(v string) *Frag { return &Frag{Kind: Text, Value: v} }

// AttrF builds an attribute fragment.
func AttrF(name, v string) *Frag { return &Frag{Kind: Attr, Name: name, Value: v} }

// Clone deep-copies a fragment.
func (f *Frag) Clone() *Frag {
	if f == nil {
		return nil
	}
	c := &Frag{Kind: f.Kind, Name: f.Name, Value: f.Value}
	for _, a := range f.Attrs {
		c.Attrs = append(c.Attrs, a.Clone())
	}
	for _, ch := range f.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// String renders the fragment as compact XML, mainly for tests and
// diagnostics.
func (f *Frag) String() string {
	var b strings.Builder
	writeFrag(&b, f)
	return b.String()
}

// StringIndent renders the fragment as indented XML, one element per line.
// Elements with only text content stay on one line.
func (f *Frag) StringIndent(indent string) string {
	var b strings.Builder
	writeFragIndent(&b, f, indent, 0)
	return b.String()
}

func writeFragIndent(b *strings.Builder, f *Frag, indent string, depth int) {
	pad := strings.Repeat(indent, depth)
	switch f.Kind {
	case Document:
		for _, c := range f.Children {
			writeFragIndent(b, c, indent, depth)
		}
	case Text:
		b.WriteString(pad)
		WriteText(b, f.Value)
		b.WriteByte('\n')
	case Attr:
		// handled by the parent element
	case Element:
		b.WriteString(pad)
		b.WriteByte('<')
		b.WriteString(f.Name)
		for _, a := range f.Attrs {
			b.WriteByte(' ')
			WriteAttr(b, a.Name, a.Value)
		}
		if len(f.Children) == 0 {
			b.WriteString("/>\n")
			return
		}
		if textOnly(f) {
			b.WriteByte('>')
			for _, c := range f.Children {
				WriteText(b, c.Value)
			}
			b.WriteString("</" + f.Name + ">\n")
			return
		}
		b.WriteString(">\n")
		for _, c := range f.Children {
			writeFragIndent(b, c, indent, depth+1)
		}
		b.WriteString(pad + "</" + f.Name + ">\n")
	}
}

func textOnly(f *Frag) bool {
	for _, c := range f.Children {
		if c.Kind != Text {
			return false
		}
	}
	return true
}

func writeFrag(b *strings.Builder, f *Frag) {
	switch f.Kind {
	case Document:
		for _, c := range f.Children {
			writeFrag(b, c)
		}
	case Text:
		WriteText(b, f.Value)
	case Attr:
		WriteAttr(b, f.Name, f.Value)
	case Element:
		b.WriteByte('<')
		b.WriteString(f.Name)
		for _, a := range f.Attrs {
			b.WriteByte(' ')
			WriteAttr(b, a.Name, a.Value)
		}
		if len(f.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for _, c := range f.Children {
			writeFrag(b, c)
		}
		b.WriteString("</")
		b.WriteString(f.Name)
		b.WriteByte('>')
	}
}

// The two escapers every serializer in the repo writes through. A Replacer is
// safe for concurrent use and builds its lookup table once, so they are
// package-level. Attribute values also escape the quote that delimits them
// and the whitespace an XML parser would otherwise normalize away.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;",
		"\t", "&#9;", "\n", "&#10;", "\r", "&#13;")
)

// WriteText appends s to b escaped as element content.
func WriteText(b *strings.Builder, s string) {
	textEscaper.WriteString(b, s)
}

// WriteAttr appends name="value" to b with the value escaped, so that
// parsing the output yields value back.
func WriteAttr(b *strings.Builder, name, value string) {
	b.WriteString(name)
	b.WriteString(`="`)
	attrEscaper.WriteString(b, value)
	b.WriteByte('"')
}

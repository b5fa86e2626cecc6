package xmldoc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse parses an XML document or fragment with a single root element into a
// Frag tree. Whitespace-only text between elements is dropped; all other
// text is preserved verbatim.
func Parse(src string) (*Frag, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	root, err := parseRoot(dec)
	if err != nil {
		return nil, err
	}
	// Only comments, processing instructions and whitespace may follow.
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return root, nil
		}
		if err != nil {
			return nil, err
		}
		if _, ok := tok.(xml.StartElement); ok {
			return nil, fmt.Errorf("xmldoc: multiple root elements")
		}
	}
}

// ParsePrefix parses the single-rooted fragment src begins with, under
// Parse's rules, and stops where its root element closes: n is the number of
// bytes consumed, so a caller embedding XML in a larger language (the update
// language's insert fragments) tokenizes the fragment once and resumes at
// src[n:].
func ParsePrefix(src string) (f *Frag, n int, err error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	if f, err = parseRoot(dec); err != nil {
		return nil, 0, err
	}
	return f, int(dec.InputOffset()), nil
}

// parseRoot reads tokens up to and including the end tag of the first
// element and returns that element's tree.
func parseRoot(dec *xml.Decoder) (*Frag, error) {
	var stack []*Frag
	var root *Frag
	for root == nil || len(stack) > 0 {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := &Frag{Kind: Element, Name: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				e.Attrs = append(e.Attrs, &Frag{Kind: Attr, Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				root = e
			} else {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, e)
			}
			stack = append(stack, e)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			p := stack[len(stack)-1]
			// Merge adjacent text nodes.
			if n := len(p.Children); n > 0 && p.Children[n-1].Kind == Text {
				p.Children[n-1].Value += s
				continue
			}
			p.Children = append(p.Children, &Frag{Kind: Text, Value: strings.TrimSpace(s)})
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmldoc: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldoc: unclosed element %s", stack[len(stack)-1].Name)
	}
	return root, nil
}

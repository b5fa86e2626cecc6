package core

import (
	"strings"
	"testing"

	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// unorderedView uses unordered(): the result order is implementation-
// defined, so incremental and recomputed extents are compared canonically.
const unorderedView = `<result>{ unordered(
	for $b in doc("bib.xml")/bib/book
	return <t>{$b/title/text()}</t>
)}</result>`

func TestCanonicalXMLNormalizesUnordered(t *testing.T) {
	s := bibStore(t)
	v, err := NewView(s, unorderedView)
	if err != nil {
		t.Fatal(err)
	}
	canon := CanonicalXML(v.Extent)
	if !strings.Contains(canon, "TCP/IP Illustrated") || !strings.Contains(canon, "Data on the Web") {
		t.Fatalf("canonical form lost content: %s", canon)
	}
	// Canonicalization is deterministic.
	if CanonicalXML(v.Extent) != canon {
		t.Fatal("canonicalization not deterministic")
	}
}

func TestUnorderedViewMaintenanceCanonical(t *testing.T) {
	s := bibStore(t)
	v, err := NewView(s, unorderedView)
	if err != nil {
		t.Fatal(err)
	}
	prims := []*update.Primitive{}
	root, _ := s.RootElem("bib.xml")
	prims = append(prims, &update.Primitive{Kind: update.Insert, Doc: "bib.xml", Parent: root,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "2001"),
			xmldoc.Elem("title", xmldoc.TextF("Unordered Addition")))})
	books := xmldoc.ChildElems(s, root, "book")
	prims = append(prims, &update.Primitive{Kind: update.Delete, Doc: "bib.xml", Key: books[0]})

	// Recompute baseline (canonical) before mutating.
	d := xmldoc.NewDraft(s)
	for _, p := range prims {
		cp := *p
		if err := update.ApplyToStore(d, &cp); err != nil {
			t.Fatal(err)
		}
	}
	rv, err := NewView(&xmldoc.Store{Snap: d.Freeze()}, unorderedView)
	if err != nil {
		t.Fatal(err)
	}
	want := CanonicalXML(rv.Extent)

	if _, err := v.ApplyUpdates(prims); err != nil {
		t.Fatal(err)
	}
	if got := CanonicalXML(v.Extent); got != want {
		t.Fatalf("canonical mismatch:\nincr: %s\nfull: %s", got, want)
	}
}

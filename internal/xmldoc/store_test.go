package xmldoc

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xqview/internal/flexkey"
)

const bibXML = `
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
  </book>
</bib>`

func loadBib(t *testing.T) (*Store, flexkey.Key) {
	t.Helper()
	s := NewStore()
	root, err := s.Load("bib.xml", bibXML)
	if err != nil {
		t.Fatal(err)
	}
	return s, root
}

func TestLoadAndNavigate(t *testing.T) {
	s, root := loadBib(t)
	n, ok := s.Node(root)
	if !ok || n.Name != "bib" || n.Kind != Element {
		t.Fatalf("root = %+v", n)
	}
	books := ChildElems(s, root, "book")
	if len(books) != 2 {
		t.Fatalf("got %d books", len(books))
	}
	if !flexkey.Less(books[0], books[1]) {
		t.Fatal("books out of document order")
	}
	titles := DescendantElems(s, root, "title")
	if len(titles) != 2 {
		t.Fatalf("got %d titles", len(titles))
	}
	if got := StringValue(s, titles[0]); got != "TCP/IP Illustrated" {
		t.Fatalf("title[0] = %q", got)
	}
	ak, ok := Attribute(s, books[1], "year")
	if !ok {
		t.Fatal("missing year attr")
	}
	if got := StringValue(s, ak); got != "2000" {
		t.Fatalf("year = %q", got)
	}
}

func TestStringValueOfElement(t *testing.T) {
	s, root := loadBib(t)
	books := ChildElems(s, root, "book")
	authors := ChildElems(s, books[0], "author")
	if got := StringValue(s, authors[0]); got != "StevensW." {
		t.Fatalf("author string value = %q", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	s, root := loadBib(t)
	out := Serialize(s, root)
	f2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if f2.String() != out {
		t.Fatalf("round trip mismatch:\n%s\n%s", out, f2.String())
	}
	if !strings.Contains(out, `year="1994"`) {
		t.Fatalf("missing attribute in %s", out)
	}
}

func TestInsertFragmentOrder(t *testing.T) {
	s, root := loadBib(t)
	d := NewDraft(s)
	books := ChildElems(s, root, "book")
	frag := Elem("book", AttrF("year", "1994"), Elem("title", TextF("Advanced Programming")))
	// Insert after book[1] (0-based books[1]) i.e. at the end.
	k, err := d.InsertFragment(root, books[1], "", frag)
	if err != nil {
		t.Fatal(err)
	}
	nb := ChildElems(d, root, "book")
	if len(nb) != 3 || nb[2] != k {
		t.Fatalf("new book misplaced: %v (k=%s)", nb, k)
	}
	// Insert between the two original books.
	frag2 := Elem("book", Elem("title", TextF("Middle")))
	k2, err := d.InsertFragment(root, books[0], books[1], frag2)
	if err != nil {
		t.Fatal(err)
	}
	s.Snap = d.Freeze()
	nb = ChildElems(s, root, "book")
	if len(nb) != 4 || nb[1] != k2 {
		t.Fatalf("middle book misplaced: %v (k2=%s)", nb, k2)
	}
	keys := make([]string, len(nb))
	for i, b := range nb {
		keys[i] = string(b)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("child keys unsorted: %v", keys)
	}
}

func TestDeleteSubtree(t *testing.T) {
	s, root := loadBib(t)
	books := ChildElems(s, root, "book")
	before := s.Size()
	d := NewDraft(s)
	if err := d.DeleteSubtree(books[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSubtree(books[0]); err == nil {
		t.Fatal("deleting a deleted node should fail")
	}
	s.Snap = d.Freeze()
	if got := ChildElems(s, root, "book"); len(got) != 1 {
		t.Fatalf("still %d books", len(got))
	}
	// book + attr + title + text + author + last + text + first + text = 9
	if s.Size() != before-9 {
		t.Fatalf("size %d -> %d, want -9", before, s.Size())
	}
	if _, ok := s.Node(books[0]); ok {
		t.Fatal("deleted node still present")
	}
}

func TestReplaceText(t *testing.T) {
	s, root := loadBib(t)
	titles := DescendantElems(s, root, "title")
	texts := TextChildren(s, titles[0])
	if len(texts) != 1 {
		t.Fatalf("want 1 text child, got %d", len(texts))
	}
	d := NewDraft(s)
	if err := d.ReplaceText(texts[0], "New Title"); err != nil {
		t.Fatal(err)
	}
	if err := d.ReplaceText(titles[0], "x"); err == nil {
		t.Fatal("replacing an element should fail")
	}
	s.Snap = d.Freeze()
	if got := StringValue(s, titles[0]); got != "New Title" {
		t.Fatalf("after replace: %q", got)
	}
}

// TestVersionIsolation: committing over a store a draft that uses every
// primitive kind — document load, insert, delete, replace — leaves the
// version the store held before as it was.
func TestVersionIsolation(t *testing.T) {
	s, root := loadBib(t)
	c := s.Snap
	want := c.DebugDump()
	books := ChildElems(s, root, "book")
	text := TextChildren(s, ChildElems(s, books[1], "title")[0])[0]
	d := NewDraft(s)
	if _, err := d.LoadFragment("new.xml", Elem("n", TextF("x"))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertFragment(books[1], "", "", Elem("note", AttrF("k", "v"))); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSubtree(books[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.ReplaceText(text, "Changed"); err != nil {
		t.Fatal(err)
	}
	s.Snap = d.Freeze()
	if got := c.DebugDump(); got != want {
		t.Fatalf("earlier version affected by the commit:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if got := len(ChildElems(s, root, "book")); got != 1 {
		t.Fatalf("the store should have 1 book, has %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a><b></a>", "<a/><b/>", "text only"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

// ParsePrefix stops where the first element closes and reports how far it
// read; the fragment it returns is the one Parse builds from those bytes, and
// its errors are Parse's.
func TestParsePrefix(t *testing.T) {
	for _, c := range []struct{ src, frag string }{
		{`<a/> after $b`, `<a/>`},
		{`<a x="1"><b>t</b> <c/></a><d/>`, `<a x="1"><b>t</b> <c/></a>`},
		{`<a>one<!-- c -->two</a>tail`, `<a>one<!-- c -->two</a>`},
		{`<?xml version="1.0"?><a> x </a> `, `<?xml version="1.0"?><a> x </a>`},
	} {
		f, n, err := ParsePrefix(c.src)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", c.src, err)
		}
		if c.src[:n] != c.frag {
			t.Fatalf("ParsePrefix(%q) consumed %q, want %q", c.src, c.src[:n], c.frag)
		}
		whole, err := Parse(c.frag)
		if err != nil {
			t.Fatal(err)
		}
		if f.String() != whole.String() {
			t.Fatalf("ParsePrefix(%q) = %s, Parse of the same bytes = %s", c.src, f, whole)
		}
	}
	for _, bad := range []string{"", "text only", "<a><b></a>", "<a><b>", "<a x=1/>", "<!-- only -->"} {
		_, _, perr := ParsePrefix(bad)
		_, err := Parse(bad)
		if perr == nil || err == nil || perr.Error() != err.Error() {
			t.Fatalf("ParsePrefix(%q) error %v, Parse error %v", bad, perr, err)
		}
	}
}

func TestSubtreeSize(t *testing.T) {
	s, root := loadBib(t)
	books := ChildElems(s, root, "book")
	// book(1) + @year(1) + title(1)+text(1) + author(1)+last(1)+text(1)+first(1)+text(1) = 9
	if got := SubtreeSize(s, books[0]); got != 9 {
		t.Fatalf("SubtreeSize = %d", got)
	}
}

func TestEscaping(t *testing.T) {
	s := NewStore()
	root, err := s.Load("d", `<a note="5 &lt; 6">x &amp; y</a>`)
	if err != nil {
		t.Fatal(err)
	}
	out := Serialize(s, root)
	f, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse escaped output %q: %v", out, err)
	}
	if f.Children[0].Value != "x & y" {
		t.Fatalf("text round trip: %q", f.Children[0].Value)
	}
	if f.Attrs[0].Value != "5 < 6" {
		t.Fatalf("attr round trip: %q", f.Attrs[0].Value)
	}
}

// TestAttrValuesRoundTrip pins well-formed attribute output in both writers:
// a value holding the delimiting quote, whitespace a parser would normalize,
// or markup characters must come back from Parse unchanged, and a value with
// none of them must serialize exactly as written.
func TestAttrValuesRoundTrip(t *testing.T) {
	values := []string{`say "hi"`, "tab\there", "line\nbreak", "cr\rhere", `a&b<c>d`, `c:\dir`, "plain"}
	f := Elem("a")
	for i, v := range values {
		f.Attrs = append(f.Attrs, AttrF(fmt.Sprintf("k%d", i), v))
	}
	f.Children = []*Frag{Elem("b", AttrF("k", `"`), TextF("x"))}
	for name, out := range map[string]string{"String": f.String(), "StringIndent": f.StringIndent("  ")} {
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("%s: reparse %q: %v", name, out, err)
		}
		for i, v := range values {
			if got := back.Attrs[i].Value; got != v {
				t.Errorf("%s: attribute %d came back %q, want %q", name, i, got, v)
			}
		}
		if got := back.Children[0].Attrs[0].Value; got != `"` {
			t.Errorf("%s: nested attribute came back %q", name, got)
		}
	}
	if got, want := AttrF("k", "say \"hi\"\n").String(), `k="say &quot;hi&quot;&#10;"`; got != want {
		t.Errorf("bare attribute = %s, want %s", got, want)
	}
	if got, want := Elem("a", AttrF("x", "1 > 0"), TextF("t")).String(), `<a x="1 > 0">t</a>`; got != want {
		t.Errorf("plain value changed: %s, want %s", got, want)
	}
}

func TestStringIndent(t *testing.T) {
	f, err := Parse(`<a x="1"><b>text</b><c><d/></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	got := f.StringIndent("  ")
	want := "<a x=\"1\">\n  <b>text</b>\n  <c>\n    <d/>\n  </c>\n</a>\n"
	if got != want {
		t.Fatalf("indented:\n%q\nwant:\n%q", got, want)
	}
	// Indented output re-parses to the same compact form.
	f2, err := Parse(got)
	if err != nil {
		t.Fatal(err)
	}
	if f2.String() != f.String() {
		t.Fatalf("round trip: %s vs %s", f2.String(), f.String())
	}
}

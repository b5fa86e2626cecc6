package xpath

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

const doc = `
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <price>65.95</price>
    <author><last>Stevens</last></author>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <price>39.95</price>
    <author><last>Abiteboul</last></author>
  </book>
  <journal>
    <title>TODS</title>
  </journal>
</bib>`

func setup(t *testing.T) (*xmldoc.Store, *Path) {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", doc); err != nil {
		t.Fatal(err)
	}
	return s, nil
}

func evalStr(t *testing.T, s *xmldoc.Store, expr string) []string {
	t.Helper()
	root, _ := s.RootElem("bib.xml")
	p, err := Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	ks := Eval(s, root, p)
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = xmldoc.StringValue(s, k)
	}
	return out
}

func TestChildAxis(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "book/title")
	want := []string{"TCP/IP Illustrated", "Data on the Web"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v", got)
	}
}

func TestDescendantAxis(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "//title")
	if len(got) != 3 {
		t.Fatalf("//title found %d: %v", len(got), got)
	}
	got = evalStr(t, s, "//last")
	if len(got) != 2 || got[0] != "Stevens" {
		t.Fatalf("//last = %v", got)
	}
}

func TestAttrStep(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "book/@year")
	if len(got) != 2 || got[0] != "1994" || got[1] != "2000" {
		t.Fatalf("got %v", got)
	}
}

func TestTextStep(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "book/title/text()")
	if len(got) != 2 || got[0] != "TCP/IP Illustrated" {
		t.Fatalf("got %v", got)
	}
}

func TestPositionalPredicate(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "book[2]/title")
	if len(got) != 1 || got[0] != "Data on the Web" {
		t.Fatalf("got %v", got)
	}
	if got := evalStr(t, s, "book[5]"); len(got) != 0 {
		t.Fatalf("out-of-range positional matched %v", got)
	}
}

func TestValuePredicate(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, `book[title = "Data on the Web"]/@year`)
	if len(got) != 1 || got[0] != "2000" {
		t.Fatalf("got %v", got)
	}
	got = evalStr(t, s, `book[price < "50"]/title`)
	if len(got) != 1 || got[0] != "Data on the Web" {
		t.Fatalf("numeric pred: %v", got)
	}
	got = evalStr(t, s, `book[@year = "1994"]/title`)
	if len(got) != 1 || got[0] != "TCP/IP Illustrated" {
		t.Fatalf("attr pred: %v", got)
	}
}

func TestExistencePredicate(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "book[author]/title")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	got = evalStr(t, s, "journal[author]/title")
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestWildcard(t *testing.T) {
	s, _ := setup(t)
	got := evalStr(t, s, "*/title")
	if len(got) != 3 {
		t.Fatalf("wildcard got %v", got)
	}
}

func TestLeadingSlash(t *testing.T) {
	s, _ := setup(t)
	root, _ := s.RootElem("bib.xml")
	// Leading slash accepted; "bib" matches nothing from inside root, so
	// evaluate from a synthetic vantage: evaluate "book" (relative) instead.
	p := MustParse("/book/title")
	if got := Eval(s, root, p); len(got) != 2 {
		t.Fatalf("leading slash: %d", len(got))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "book[", "book[title =", "book[title = 'x' extra ]junk", "book/[2]"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"book/title", "//last", "book[2]/title", "book/@year", "book/title/text()",
	} {
		p := MustParse(src)
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", src, p.String(), err)
		}
		if p2.String() != p.String() {
			t.Fatalf("round trip: %q vs %q", p.String(), p2.String())
		}
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, op, b string
		want     bool
	}{
		{"5", "<", "10", true}, // numeric, not string compare
		{"5", ">", "10", false},
		{"abc", "<", "abd", true}, // string fallback
		{"1994", "=", "1994", true},
		{"39.95", "<=", "39.95", true},
		{"-2", "<", "1", true},
		{"", "=", "", true},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.op, c.b); got != c.want {
			t.Fatalf("CompareValues(%q %s %q) = %v", c.a, c.op, c.b, got)
		}
	}
}

// evalDedupEverywhere is the step kernel as it was before the child step
// stopped deduplicating — every step, whatever its axis, filters its output
// through a seen set — with each step's output put in document order by
// position in a walk of the document, not by key.
func evalDedupEverywhere(r xmldoc.Reader, start flexkey.Key, path *Path) []flexkey.Key {
	pos := map[flexkey.Key]int{}
	var walk func(k flexkey.Key)
	walk = func(k flexkey.Key) {
		pos[k] = len(pos)
		for _, a := range r.Attrs(k) {
			pos[a] = len(pos)
		}
		for _, c := range r.Children(k) {
			walk(c)
		}
	}
	walk(start)
	ctx := []flexkey.Key{start}
	for i := range path.Steps {
		st := &path.Steps[i]
		var out []flexkey.Key
		seen := map[flexkey.Key]bool{}
		for _, c := range ctx {
			for _, m := range applyPreds(r, stepFrom(r, c, st), st.Preds) {
				if !seen[m] {
					seen[m] = true
					out = append(out, m)
				}
			}
		}
		if len(out) == 0 {
			return nil
		}
		slices.SortFunc(out, func(a, b flexkey.Key) int { return pos[a] - pos[b] })
		ctx = out
	}
	return ctx
}

// randomTree grows an element over the names a, b, c with nesting (a inside
// a, b inside b), optional x attributes and text children.
func randomTree(rng *rand.Rand, name string, depth int) *xmldoc.Frag {
	e := xmldoc.Elem(name)
	if rng.Intn(3) == 0 {
		e.Attrs = append(e.Attrs, &xmldoc.Frag{Kind: xmldoc.Attr, Name: "x", Value: fmt.Sprint(rng.Intn(3))})
	}
	for i, n := 0, rng.Intn(4); i < n && depth > 0; i++ {
		if rng.Intn(4) == 0 {
			e.Children = append(e.Children, &xmldoc.Frag{Kind: xmldoc.Text, Value: fmt.Sprint(rng.Intn(5))})
			continue
		}
		e.Children = append(e.Children, randomTree(rng, string("abc"[rng.Intn(3)]), depth-1))
	}
	return e
}

// TestChildStepMatchesDedupEverywhere pins the induction the child step
// relies on: from one start node, every step's output is distinct, so only
// the descendant axis over several (possibly nested) contexts needs a
// dedup. Hits come in document order. Each tree also gets children inserted
// before its first ones, whose keys open below the attributes' '@'.
func TestChildStepMatchesDedupEverywhere(t *testing.T) {
	paths := []string{
		"a//b/c", "//a//b", "//a//a/b", "a/b/@x", "//a/@x", "//@x", "//a/text()", "//text()",
		"a//b[1]/c", "*//*/c", "//a[b]/c", `//a[@x = "1"]//b`, "//b[2]//c/text()", "a/a/a", "//a//b//c",
		`//a[b = "3"]/b`, "*/*/*", "//a/b", "//*/@x",
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := xmldoc.NewStore()
		root, err := s.LoadFragment("t.xml", randomTree(rng, "a", 6))
		if err != nil {
			t.Fatal(err)
		}
		d := xmldoc.NewDraft(s)
		elems := xmldoc.DescendantElems(s, root, "*")
		for _, e := range elems[:min(4, len(elems))] {
			for i := 0; i < 3; i++ {
				first := ""
				if cs := d.Children(e); len(cs) > 0 {
					first = string(cs[0])
				}
				f := randomTree(rng, string("ab"[i%2]), 1)
				f.Attrs = append(f.Attrs, xmldoc.AttrF("x", "p"))
				if _, err := d.InsertFragment(e, "", flexkey.Key(first), f); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Snap = d.Freeze()
		for _, src := range paths {
			p := MustParse(src)
			got, want := Eval(s, root, p), evalDedupEverywhere(s, root, p)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s:\n got  %v\n want %v", seed, src, got, want)
			}
		}
	}
}

// TestNestedContextsInDocumentOrder: a child step under nested contexts
// returns the inner context's hits first, as they come first in the
// document.
func TestNestedContextsInDocumentOrder(t *testing.T) {
	s := xmldoc.NewStore()
	root, err := s.Load("n.xml", `<r><a><a><b>1</b></a><b>2</b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, k := range Eval(s, root, MustParse("//a/b")) {
		got = append(got, xmldoc.StringValue(s, k))
	}
	if !slices.Equal(got, []string{"1", "2"}) {
		t.Fatalf("//a/b = %v, want [1 2]", got)
	}
}

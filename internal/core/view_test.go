package core

import (
	"strings"
	"testing"

	"xqview/internal/update"
	"xqview/internal/xmldoc"
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

const pricesXML = `
<prices>
  <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
  <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
  <entry><price>69.99</price><b-title>Advanced programming in the Unix environment</b-title></entry>
</prices>`

// RunningExample is the view of Fig 1.2(a).
const RunningExample = `
<result>{
  FOR $y in distinct-values(doc("bib.xml")/bib/book/@year)
  ORDER BY $y
  RETURN
    <yGroup Y="{$y}">
      <books>
        FOR $b in doc("bib.xml")/bib/book,
            $e in doc("prices.xml")/prices/entry
        WHERE $y = $b/@year and $b/title = $e/b-title
        RETURN <entry>{$b/title} {$e/price}</entry>
      </books>
    </yGroup>
}</result>`

// fig13 are the three source updates of Fig 1.3.
const fig13 = `
for $book in document("bib.xml")/bib/book[2]
update $book
insert <book year="1994"><title>Advanced programming in the Unix environment</title><author><last>Stevens</last><first>W.</first></author></book> after $book

for $book in document("bib.xml")/bib/book
where $book/title = "Data on the Web"
update $book
delete $book

for $entry in document("prices.xml")/prices/entry
where $entry/b-title = "TCP/IP Illustrated"
update $entry
replace $entry/price/text() with "70"
`

func bibStore(t *testing.T) *xmldoc.Store {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInitialExtentFig12b(t *testing.T) {
	v, err := NewView(bibStore(t), RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	want := `<result>` +
		`<yGroup Y="1994"><books><entry><title>TCP/IP Illustrated</title><price>65.95</price></entry></books></yGroup>` +
		`<yGroup Y="2000"><books><entry><title>Data on the Web</title><price>39.95</price></entry></books></yGroup>` +
		`</result>`
	if got := v.XML(); got != want {
		t.Fatalf("initial extent:\ngot  %s\nwant %s", got, want)
	}
}

// TestMaintainRunningExample reproduces Fig 1.4: the refreshed extent after
// the three heterogeneous updates of Fig 1.3, computed incrementally.
func TestMaintainRunningExample(t *testing.T) {
	s := bibStore(t)
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	ms := applyScript(t, v, fig13)
	want := `<result>` +
		`<yGroup Y="1994"><books>` +
		`<entry><title>TCP/IP Illustrated</title><price>70</price></entry>` +
		`<entry><title>Advanced programming in the Unix environment</title><price>69.99</price></entry>` +
		`</books></yGroup>` +
		`</result>`
	if got := v.XML(); got != want {
		t.Fatalf("refreshed extent:\ngot  %s\nwant %s", got, want)
	}
	if ms.Validation.Total != 3 {
		t.Fatalf("validation stats: %+v", ms.Validation)
	}
}

// TestIncrementalMatchesRecompute is the correctness theorem in test form:
// the incrementally refreshed extent must equal recomputation over the
// updated sources.
func TestIncrementalMatchesRecompute(t *testing.T) {
	s := bibStore(t)
	prims, err := update.ParseAndEvaluate(s, fig13)
	if err != nil {
		t.Fatal(err)
	}
	wantXML, err := Recompute(s, RunningExample, prims)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyUpdates(prims); err != nil {
		t.Fatal(err)
	}
	if got := v.XML(); got != wantXML {
		t.Fatalf("incremental != recompute:\nincr %s\nfull %s", got, wantXML)
	}
}

// TestSourceRefreshed verifies the apply phase also refreshed the base
// documents.
func TestSourceRefreshed(t *testing.T) {
	s := bibStore(t)
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, v, fig13)
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	if len(books) != 2 {
		t.Fatalf("store has %d books after maintenance", len(books))
	}
	proot, _ := s.RootElem("prices.xml")
	if got := xmldoc.Serialize(s, proot); !strings.Contains(got, "<price>70</price>") {
		t.Fatalf("price not replaced in store: %s", got)
	}
}

// TestRepeatedMaintenance applies several rounds of updates, checking the
// view stays consistent with recomputation after each round.
func TestRepeatedMaintenance(t *testing.T) {
	s := bibStore(t)
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	rounds := []string{
		`for $b in document("bib.xml")/bib
		 update $b
		 insert <book year="2001"><title>XML Handbook</title></book> into $b

		 for $e in document("prices.xml")/prices
		 update $e
		 insert <entry><price>49.99</price><b-title>XML Handbook</b-title></entry> into $e`,
		`for $b in document("bib.xml")/bib/book
		 where $b/title = "TCP/IP Illustrated"
		 update $b
		 delete $b`,
		`for $e in document("prices.xml")/prices/entry
		 where $e/b-title = "XML Handbook"
		 update $e
		 replace $e/price/text() with "59.99"`,
	}
	for i, script := range rounds {
		prims, err := update.ParseAndEvaluate(s, script)
		if err != nil {
			t.Fatalf("round %d parse: %v", i, err)
		}
		want, err := Recompute(s, RunningExample, prims)
		if err != nil {
			t.Fatalf("round %d recompute: %v", i, err)
		}
		if _, err := v.ApplyUpdates(prims); err != nil {
			t.Fatalf("round %d apply: %v", i, err)
		}
		if got := v.XML(); got != want {
			t.Fatalf("round %d mismatch:\nincr %s\nfull %s", i, got, want)
		}
	}
}

// TestAttributeModifyInsideExposedFragment exercises the patch spine's
// attribute handling: replacing an attribute that is only exposed (never
// compared) must propagate as an in-place modify.
func TestAttributeModifyInsideExposedFragment(t *testing.T) {
	s := xmldoc.NewStore()
	if _, err := s.Load("d.xml", `<d><p x="1"><q>a</q></p><p x="2"><q>b</q></p></d>`); err != nil {
		t.Fatal(err)
	}
	q := `<r>{ for $p in doc("d.xml")/d/p return $p }</r>`
	v, err := NewView(s, q)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := s.RootElem("d.xml")
	ps := xmldoc.ChildElems(s, root, "p")
	ak, _ := xmldoc.Attribute(s, ps[0], "x")
	prims := []*update.Primitive{{Kind: update.Replace, Doc: "d.xml", Key: ak, NewValue: "9"}}
	want, err := Recompute(s, q, prims)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyUpdates(prims); err != nil {
		t.Fatal(err)
	}
	if got := v.XML(); got != want {
		t.Fatalf("attr modify:\nincr: %s\nfull: %s", got, want)
	}
	if !strings.Contains(v.XML(), `x="9"`) {
		t.Fatalf("new attr value missing: %s", v.XML())
	}
}

// TestDeepInsertInsideExposedFragment: inserting deep inside an exposed
// fragment patches the existing view copy at the right spot.
func TestDeepInsertInsideExposedFragment(t *testing.T) {
	s := xmldoc.NewStore()
	if _, err := s.Load("d.xml", `<d><p><q><r1>a</r1></q></p></d>`); err != nil {
		t.Fatal(err)
	}
	q := `<view>{ for $p in doc("d.xml")/d/p return $p }</view>`
	v, err := NewView(s, q)
	if err != nil {
		t.Fatal(err)
	}
	ms := applyScript(t, v, `
for $q in document("d.xml")/d/p/q
update $q
insert <r2>b</r2> into $q`)
	want, err := Recompute(s, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.XML(); got != want {
		t.Fatalf("deep insert:\nincr: %s\nfull: %s", got, want)
	}
	if !strings.Contains(v.XML(), "<r2>b</r2>") {
		t.Fatalf("inserted node missing: %s", v.XML())
	}
	if ms.DeltaRoots == 0 {
		t.Fatal("no delta produced")
	}
}

// mustSet compiles views over s into a view set.
func mustSet(t testing.TB, s *xmldoc.Store, views []*View) *ViewSet {
	t.Helper()
	set, err := NewViewSet(s, views)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// applyScript evaluates an update script against the view's store and
// maintains the view under the resulting primitives.
func applyScript(t *testing.T, v *View, src string) *MaintStats {
	t.Helper()
	prims, err := update.ParseAndEvaluate(v.Store, src)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := v.ApplyUpdates(prims)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestLateSelectMatchesRecompute maintains views whose where-conjuncts the
// compiler leaves for the late Select above the folded pipelines — a
// conjunct over the outer scope only, one over a correlated inner variable,
// and a literal-vs-literal one — through an insert round and a delete round,
// checking the extent against recomputation after each.
func TestLateSelectMatchesRecompute(t *testing.T) {
	const bib = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last><first>W.</first></author></book>
  <book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last><first>Serge</first></author></book>
</bib>`
	const prices = `<prices>
  <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
  <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
  <entry><price>12.00</price><b-title>Views</b-title></entry>
</prices>`
	const insert = `
for $r in document("bib.xml")/bib
update $r
insert <book year="2001"><title>Views</title><author><last>Stevens</last><first>R.</first></author></book> into $r`
	const del = `
for $b in document("bib.xml")/bib/book[2]
update $b
delete $b`
	for name, q := range map[string]string{
		"outer-only": `<result>{ for $b in doc("bib.xml")/bib/book return <g>{
			for $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title and $b/@year > 1995
			return $e/price }</g> }</result>`,
		"correlated": `<result>{ for $b in doc("bib.xml")/bib/book return <g>{
			for $a in $b/author where $a/last = "Stevens" return $a/first }</g> }</result>`,
		"literal": `<result>{ for $b in doc("bib.xml")/bib/book where "a" = "a" return $b/title }</result>`,
	} {
		t.Run(name, func(t *testing.T) {
			s, views := newArm(t, bib, prices, []string{q})
			set := mustSet(t, s, views)
			for _, script := range []string{insert, del} {
				prims, err := update.ParseAndEvaluate(s, script)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Recompute(s, q, deepClonePrims(prims))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := MaintainAll(set, prims, 0, Options{Parallelism: 1}); err != nil {
					t.Fatal(err)
				}
				if got := views[0].XML(); got != want {
					t.Fatalf("after %s\nincr: %s\nfull: %s", script, got, want)
				}
			}
		})
	}
}

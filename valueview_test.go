package xqview

import (
	"strings"
	"testing"
)

const valueBibXML = `<bib>` +
	`<book year="1994"><title>T1</title></book>` +
	`<book year="2000"><title>T2</title></book>` +
	`</bib>`

const valuePricesXML = `<prices>` +
	`<entry><b-title>T1</b-title><price>10</price></entry>` +
	`<entry><b-title>T2</b-title><price>20</price></entry>` +
	`<entry><b-title>T3</b-title><price>30</price></entry>` +
	`</prices>`

// TestValueExposingViewsMatchQuery maintains views that return a price's
// text() value — behind a join and inside a nested FLWOR — through rounds
// that replace the value and then insert and delete a book joining the
// replaced entry, so every round after a replace folds into state caches
// over both documents. After every round each view must read exactly as a
// fresh query of its text over the current documents.
func TestValueExposingViewsMatchQuery(t *testing.T) {
	queries := map[string]string{
		"join": `<result>{
	for $b in doc("bib.xml")/bib/book,
	    $e in doc("prices.xml")/prices/entry
	where $b/title = $e/b-title
	return <p>{$e/price/text()}</p>
}</result>`,
		"nested": `<result>{
	for $b in doc("bib.xml")/bib/book
	return <bk>{
		for $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <q>{$e/price/text()}</q>
	}</bk>
}</result>`,
	}
	rounds := []string{
		`for $e in document("prices.xml")/prices/entry where $e/b-title = "T3" update $e replace $e/price/text() with "31"`,
		`for $x in document("bib.xml")/bib update $x insert <book year="2001"><title>T3</title></book> into $x`,
		`for $e in document("prices.xml")/prices/entry where $e/b-title = "T3" update $e replace $e/price/text() with "32"`,
		`for $e in document("prices.xml")/prices/entry where $e/b-title = "T1" update $e replace $e/price/text() with "11"`,
		`for $b in document("bib.xml")/bib/book where $b/title = "T3" update $b delete $b`,
		`for $x in document("bib.xml")/bib update $x insert <book year="2002"><title>T3</title></book> into $x`,
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			db := NewDatabase()
			if err := db.LoadDocument("bib.xml", valueBibXML); err != nil {
				t.Fatal(err)
			}
			if err := db.LoadDocument("prices.xml", valuePricesXML); err != nil {
				t.Fatal(err)
			}
			v, err := db.CreateView(q)
			if err != nil {
				t.Fatal(err)
			}
			for i, script := range rounds {
				if _, err := db.ApplyUpdates(script); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				want, err := db.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := v.XML(); got != want {
					t.Fatalf("round %d: view\n%s\nquery\n%s", i, got, want)
				}
			}
		})
	}
}

// TestViewsAndUpdatesCompareAlike checks that a view's where clause and an
// update statement's where clause select the same books: both compare an
// attribute with a literal by one rule, numerically when both sides are
// numbers (surrounding white space ignored), else as strings.
func TestViewsAndUpdatesCompareAlike(t *testing.T) {
	cases := []struct {
		year, lit string
		match     bool
	}{
		{"1994", "1994", true},
		{" 1994 ", "1994", true},
		{" 1994 ", `"1994"`, true},
		{"1994.0", "1994", true},
		{"1994", "1995", false},
		{"abc", `"abc"`, true},
		{" abc", `"abc"`, false},
	}
	for _, c := range cases {
		db := NewDatabase()
		bib := `<bib><book year="` + c.year + `"><title>T1</title></book>` +
			`<book year="2000"><title>T2</title></book></bib>`
		if err := db.LoadDocument("bib.xml", bib); err != nil {
			t.Fatal(err)
		}
		q := `<r>{for $b in doc("bib.xml")/bib/book where $b/@year = ` + c.lit + ` return $b/title}</r>`
		v, err := db.CreateView(q)
		if err != nil {
			t.Fatal(err)
		}
		want := map[bool]string{true: "<r><title>T1</title></r>", false: "<r/>"}[c.match]
		if got := v.XML(); got != want {
			t.Errorf("year %q = %s: view reads %s, want %s", c.year, c.lit, got, want)
			continue
		}
		// The update language takes string literals only.
		lit := `"` + strings.Trim(c.lit, `"`) + `"`
		if _, err := db.ApplyUpdates(`for $b in document("bib.xml")/bib/book where $b/@year = ` + lit +
			` update $b replace $b/title/text() with "hit"`); err != nil {
			t.Fatal(err)
		}
		want = map[bool]string{true: "<r><title>hit</title></r>", false: "<r/>"}[c.match]
		if got := v.XML(); got != want {
			t.Errorf("year %q = %s: after the update the view reads %s, want %s", c.year, c.lit, got, want)
		}
	}
}

package xat

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/obs"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// The fold ≡ re-derive oracle: whatever a round's Prepare/Install leaves in
// the state cache must equal what evaluating the same operator over the
// post-round store derives from scratch. A fold that keeps a stale tuple,
// drops a live one or miscounts would otherwise be a silent wrong answer: the
// next round's propagation joins against the cached table.

const (
	oracleBib = `<bib>` +
		`<book year="1994"><title>T0</title><price>10</price></book>` +
		`<book year="2000"><title>T1</title><price>20</price></book>` +
		`<book year="1994"><title>T2</title><price>30</price></book>` +
		`<book year="2001"><title>T3</title><price>40</price></book>` +
		`</bib>`
	oraclePrices = `<prices>` +
		`<entry><b-title>T0</b-title><price>11</price></entry>` +
		`<entry><b-title>T1</b-title><price>21</price></entry>` +
		`<entry><b-title>T2</b-title><price>31</price></entry>` +
		`<entry><b-title>T4</b-title><price>41</price></entry>` +
		`<entry><b-title>T5</b-title><price>51</price></entry>` +
		`</prices>`
)

func oracleUnnest(doc, src, path, out string) *Op {
	return &Op{Kind: OpNavUnnest, InCol: src, OutCol: out, Path: xpath.MustParse(path),
		Inputs: []*Op{{Kind: OpSource, Doc: doc, OutCol: src}}}
}

func oracleNav(kind OpKind, in *Op, from, path, out string) *Op {
	return &Op{Kind: kind, InCol: from, OutCol: out, Path: xpath.MustParse(path), Inputs: []*Op{in}}
}

func oracleJoin(l, r *Op, lc, rc string) *Op {
	return &Op{Kind: OpJoin, Conds: []Cmp{{L: CmpOperand{Col: lc}, Op: "=", R: CmpOperand{Col: rc}}},
		Inputs: []*Op{l, r}}
}

// oraclePlans are the plans the oracle drives, each built fresh so every
// run gets its own operator IDs.
var oraclePlans = map[string]func() *Op{
	// bib⋈prices on title, then the entry's price element, joined once
	// more against the books so the first join's output is a cached input.
	"join": func() *Op {
		books := oracleNav(OpNavCollection, oracleUnnest("bib.xml", "$s", "bib/book", "$b"), "$b", "title", "$t")
		entries := oracleNav(OpNavCollection, oracleUnnest("prices.xml", "$ps", "prices/entry", "$e"), "$e", "b-title", "$bt")
		priced := oracleNav(OpNavCollection, oracleJoin(books, entries, "$t", "$bt"), "$e", "price", "$p")
		again := oracleNav(OpNavCollection, oracleUnnest("bib.xml", "$s2", "bib/book", "$b2"), "$b2", "title", "$t2")
		return oracleJoin(priced, again, "$t", "$t2")
	},
	// The entry's price/text() value items sit in a cached join input.
	"price-text": func() *Op {
		entries := oracleNav(OpNavCollection, oracleUnnest("prices.xml", "$ps", "prices/entry", "$e"), "$e", "b-title", "$bt")
		texts := oracleNav(OpNavUnnest, entries, "$e", "price/text()", "$pt")
		books := oracleNav(OpNavCollection, oracleUnnest("bib.xml", "$s", "bib/book", "$b"), "$b", "title", "$t")
		return oracleJoin(texts, books, "$bt", "$t")
	},
	// Every book carries nested collections: its child elements and its
	// price/text() values.
	"nested": func() *Op {
		books := oracleUnnest("bib.xml", "$s", "bib/book", "$b")
		kids := oracleNav(OpNavCollection, books, "$b", "*", "$kids")
		prices := oracleNav(OpNavCollection, kids, "$b", "price/text()", "$pc")
		titles := oracleNav(OpNavCollection, prices, "$b", "title", "$t")
		entries := oracleNav(OpNavCollection, oracleUnnest("prices.xml", "$ps", "prices/entry", "$e"), "$e", "b-title", "$bt")
		return oracleJoin(titles, entries, "$t", "$bt")
	},
}

// oracleRegion draws one random primitive update over the store, applies it
// to d and returns its document and region.
func oracleRegion(t *testing.T, rng *rand.Rand, s *xmldoc.Store, d *xmldoc.Draft) (string, *Region) {
	t.Helper()
	bib, _ := s.RootElem("bib.xml")
	prices, _ := s.RootElem("prices.xml")
	books := xmldoc.ChildElems(s, bib, "book")
	entries := xmldoc.ChildElems(s, prices, "entry")
	title := fmt.Sprintf("T%d", rng.Intn(7))
	price := fmt.Sprint(rng.Intn(100))
	pick := func(ks []flexkey.Key) flexkey.Key { return ks[rng.Intn(len(ks))] }
	lastChild := func(k flexkey.Key) flexkey.Key {
		cs := s.Children(k)
		return cs[len(cs)-1]
	}
	insert := func(parent flexkey.Key, f *xmldoc.Frag) *Region {
		k := flexkey.SiblingBetween(parent, lastChild(parent), "")
		if err := d.InsertFragmentWithKey(k, f); err != nil {
			t.Fatal(err)
		}
		return &Region{Mode: RegionInsert, Anchor: k, Parent: parent}
	}
	del := func(k flexkey.Key) *Region {
		if err := d.DeleteSubtree(k); err != nil {
			t.Fatal(err)
		}
		return &Region{Mode: RegionDelete, Anchor: k}
	}
	modify := func(k flexkey.Key, v string) *Region {
		if err := d.ReplaceText(k, v); err != nil {
			t.Fatal(err)
		}
		return &Region{Mode: RegionModify, Anchor: k, NewValue: v}
	}
	priceText := func(owner flexkey.Key) flexkey.Key {
		return xmldoc.TextChildren(s, xmldoc.ChildElems(s, owner, "price")[0])[0]
	}
	for {
		switch rng.Intn(9) {
		case 0:
			return "bib.xml", insert(bib, xmldoc.Elem("book", xmldoc.AttrF("year", "1999"),
				xmldoc.Elem("title", xmldoc.TextF(title)), xmldoc.Elem("price", xmldoc.TextF(price))))
		case 1:
			return "prices.xml", insert(prices, xmldoc.Elem("entry",
				xmldoc.Elem("b-title", xmldoc.TextF(title)), xmldoc.Elem("price", xmldoc.TextF(price))))
		case 2:
			// A second price under a held tuple: an insert-mode spine patch.
			if rng.Intn(2) == 0 {
				return "bib.xml", insert(pick(books), xmldoc.Elem("price", xmldoc.TextF(price)))
			}
			return "prices.xml", insert(pick(entries), xmldoc.Elem("price", xmldoc.TextF(price)))
		case 3:
			if len(books) > 1 {
				return "bib.xml", del(pick(books))
			}
		case 4:
			if len(entries) > 1 {
				return "prices.xml", del(pick(entries))
			}
		case 5:
			return "prices.xml", modify(priceText(pick(entries)), price)
		case 6:
			return "bib.xml", modify(priceText(pick(books)), price)
		case 7:
			year, _ := xmldoc.Attribute(s, pick(books), "year")
			return "bib.xml", modify(year, fmt.Sprint(1990+rng.Intn(20)))
		case 8:
			// A price under a held tuple: a delete-mode spine patch.
			if rng.Intn(2) == 0 {
				if ps := xmldoc.ChildElems(s, pick(books), "price"); len(ps) > 1 {
					return "bib.xml", del(ps[len(ps)-1])
				}
			} else if ps := xmldoc.ChildElems(s, pick(entries), "price"); len(ps) > 1 {
				return "prices.xml", del(ps[len(ps)-1])
			}
		}
	}
}

// checkHeldEntries compares every held entry with a from-scratch evaluation
// of its operator over the store, as identity→count multisets, and checks
// the entry's stored identities against its tuples.
func checkHeldEntries(t *testing.T, where string, p *Plan, c *StateCache, s *xmldoc.Store) {
	t.Helper()
	byID := map[int]*Op{}
	for _, o := range p.Ops() {
		byID[o.ID] = o
	}
	for id, e := range c.entries {
		want, err := evalOp(byID[id], NewEnv(s), obs.Span{})
		if err != nil {
			t.Fatal(err)
		}
		if got, w := counts(e.tbl), counts(want); !maps.Equal(got, w) {
			t.Fatalf("%s: op %d (%s) holds\n%v\nre-derivation gives\n%v", where, id, byID[id].Kind, got, w)
		}
		for i, tp := range e.tbl.Tuples {
			if e.ids[i] != tupleIdentity(tp) {
				t.Fatalf("%s: op %d ids[%d] does not name its tuple", where, id, i)
			}
		}
	}
}

// TestFoldMatchesRederiveRandomized runs random insert, delete and modify
// rounds through propagate → Prepare → Install and, after every round,
// checks every held cache entry against re-derivation.
func TestFoldMatchesRederiveRandomized(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 40
	}
	for name, build := range oraclePlans {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				s := xmldoc.NewStore()
				if _, err := s.Load("bib.xml", oracleBib); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Load("prices.xml", oraclePrices); err != nil {
					t.Fatal(err)
				}
				p := buildPlan(t, build())
				c := NewStateCache()
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < rounds; round++ {
					d := xmldoc.NewDraft(s)
					doc, r := oracleRegion(t, rng, s, d)
					regions := map[string][]*Region{doc: {r}}
					var a *Alloc
					if round%2 == 1 {
						a = &Alloc{} // odd rounds run on an arena, whose tables Prepare copies out
					}
					if _, err := PropagateDelta(p, &DeltaInput{Base: s, New: d, Regions: regions},
						obs.Span{}, nil, c, a, nil); err != nil {
						t.Fatal(err)
					}
					pc, err := c.Prepare(regions)
					if err != nil {
						t.Fatal(err)
					}
					s.Snap = d.Freeze()
					c.Install(pc)
					a.Release()
					checkHeldEntries(t, fmt.Sprintf("seed %d round %d (%d %s)", seed, round, r.Mode, r.Anchor), p, c, s)
				}
				if st := c.Stats(); st.Folds == 0 {
					t.Errorf("seed %d: no fold ran (stats %+v)", seed, st)
				}
			}
		})
	}
}

package update

import (
	"testing"

	"xqview/internal/xmldoc"
)

// fuzzStore builds the small fixed corpus the fuzzed statements run against;
// evaluation errors are fine, panics are not.
func fuzzStore(t testing.TB) *xmldoc.Store {
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml",
		`<bib><book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last></author></book>`+
			`<book year="2000"><title>Data on the Web</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzParseUpdates drives arbitrary source through the update-language
// parser and evaluator. Invariants: no panic; primitives and errors are the
// per-statement reference evaluator's (a conflicting script is rejected
// instead); on success every primitive is well-formed (known kind, target
// document registered, inserts carry a fragment, deletes/replaces carry a
// key).
func FuzzParseUpdates(f *testing.F) {
	f.Add(`for $b in document("bib.xml")/bib/book where $b/title = "Data on the Web" update $b delete $b`)
	f.Add(`for $b in document("bib.xml")/bib update $b insert <book year="1996"><title>New</title></book> into $b`)
	f.Add(`for $b in document("bib.xml")/bib/book update $b replace $b/title with "Renamed"`)
	f.Add(`for $b in document("bib.xml")/bib/book where $b/@year = "1994" update $b insert <note/> after $b`)
	f.Add(`for $b in document("bib.xml")/bib/book where $b/@year = "1994" update $b delete $b/title
for $b in document("bib.xml")/bib/book where $b/@year = "2000.0" update $b replace $b/title with "x"
for $b in document("bib.xml")/bib/book where $b/@year = "1994" update $b delete $b`)
	f.Add(`for $b in`)
	f.Add(`update $b delete $b`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		s := fuzzStore(t)
		if _, err := checkAgainstReference(s, src); err != nil {
			t.Fatalf("%v (src %q)", err, src)
		}
		prims, err := ParseAndEvaluate(s, src)
		if err != nil {
			return
		}
		for i, p := range prims {
			switch p.Kind {
			case Insert:
				if p.Frag == nil {
					t.Fatalf("prim %d: insert without fragment (src %q)", i, src)
				}
				if p.Parent == "" {
					t.Fatalf("prim %d: insert without parent (src %q)", i, src)
				}
				// What the parser accepted must serialize well-formed, with
				// every attribute value intact (quotes, tabs, newlines).
				back, err := xmldoc.Parse(p.Frag.String())
				if err != nil {
					t.Fatalf("prim %d: fragment %s does not re-parse: %v (src %q)", i, p.Frag, err, src)
				}
				for j, a := range p.Frag.Attrs {
					if got := back.Attrs[j].Value; got != a.Value {
						t.Fatalf("prim %d: attribute %s=%q came back %q (src %q)", i, a.Name, a.Value, got, src)
					}
				}
			case Delete:
				if p.Key == "" {
					t.Fatalf("prim %d: delete without key (src %q)", i, src)
				}
			case Replace:
				if p.Key == "" {
					t.Fatalf("prim %d: replace without key (src %q)", i, src)
				}
			default:
				t.Fatalf("prim %d: unknown kind %v (src %q)", i, p.Kind, src)
			}
			if _, ok := s.Root(p.Doc); !ok {
				t.Fatalf("prim %d: references unregistered document %q (src %q)", i, p.Doc, src)
			}
		}
	})
}

package core

import (
	"math/rand"
	"testing"

	"xqview/internal/deepunion"
	"xqview/internal/xmldoc"
)

// TestSoakLongMaintenanceSequence drives one view through a long sequence
// of maintenance rounds over a growing/shrinking database, re-validating the
// extent against recomputation periodically and its structural invariants
// every round. This is the endurance version of the property tests: it
// exercises identifier stability (Sec 4.6) and FlexKey density under
// hundreds of accumulated updates.
func TestSoakLongMaintenanceSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(777))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 6)); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for round := 0; round < 120; round++ {
		prims := randomBatch(t, rng, s, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		var want string
		checkpoint := round%10 == 0
		if checkpoint {
			w, err := Recompute(s, RunningExample, prims)
			if err != nil {
				t.Fatalf("round %d recompute: %v", round, err)
			}
			want = w
		}
		if _, err := v.ApplyUpdates(prims); err != nil {
			t.Fatalf("round %d apply: %v", round, err)
		}
		applied += len(prims)
		if err := deepunion.Validate(v.Extent); err != nil {
			t.Fatalf("round %d invariant: %v", round, err)
		}
		if checkpoint && v.XML() != want {
			t.Fatalf("round %d diverged after %d updates:\nincr: %s\nfull: %s",
				round, applied, v.XML(), want)
		}
	}
	// Final full check.
	want, err := Recompute(s, RunningExample, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.XML(); got != want {
		t.Fatalf("final divergence after %d updates:\nincr: %s\nfull: %s", applied, got, want)
	}
	if applied < 100 {
		t.Fatalf("soak applied only %d updates", applied)
	}
}

// TestSoakKeyDensity checks that hundreds of position-targeted insertions
// never exhaust FlexKeys or disturb sibling order (Sec 3.4.4).
func TestSoakKeyDensity(t *testing.T) {
	s := xmldoc.NewStore()
	root, err := s.Load("d.xml", `<d><a/><b/></d>`)
	if err != nil {
		t.Fatal(err)
	}
	kids := s.Children(root)
	a := kids[0]
	for i := 0; i < 300; i++ {
		// Always squeeze right after <a>.
		next := s.NextSibling(a)
		d := xmldoc.NewDraft(s)
		if _, err := d.InsertFragment(root, a, next, xmldoc.Elem("x")); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		s.Snap = d.Freeze()
	}
	cs := s.Children(root)
	if len(cs) != 302 {
		t.Fatalf("children: %d", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("sibling order broken at %d", i)
		}
	}
}

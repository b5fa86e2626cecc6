package flexkey

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSegmentMonotone(t *testing.T) {
	prev := ""
	for i := 0; i < 200; i++ {
		s := Segment(i)
		if s <= prev {
			t.Fatalf("Segment(%d)=%q not > previous %q", i, s, prev)
		}
		if strings.ContainsAny(s, Sep) {
			t.Fatalf("Segment(%d)=%q contains separator", i, s)
		}
		prev = s
	}
}

func TestChildAndParent(t *testing.T) {
	root := Key("b")
	c0 := Child(root, 0)
	c1 := Child(root, 1)
	if !Less(c0, c1) {
		t.Fatalf("children out of order: %q !< %q", c0, c1)
	}
	if !IsAncestorOf(root, c0) {
		t.Fatalf("%q should be ancestor of %q", root, c0)
	}
	p, ok := Parent(c0)
	if !ok || p != root {
		t.Fatalf("Parent(%q) = %q, %v; want %q", c0, p, ok, root)
	}
	if _, ok := Parent(root); ok {
		t.Fatal("root should have no parent")
	}
	if _, ok := Parent(""); ok {
		t.Fatal("the empty key should have no parent")
	}
	// An attribute key is its element's key plus one segment.
	if p, ok := Parent("b.d.f.@b"); !ok || p != "b.d.f" {
		t.Fatalf("Parent(b.d.f.@b) = %q, %v; want b.d.f, true", p, ok)
	}
}

func TestAncestorOrdersBeforeDescendant(t *testing.T) {
	k := Key("b")
	for i := 0; i < 10; i++ {
		c := Child(k, i%3)
		if !Less(k, c) {
			t.Fatalf("ancestor %q should sort before descendant %q", k, c)
		}
		k = c
	}
}

func TestIsAncestorOfRejectsSiblingPrefix(t *testing.T) {
	// "b.b" is a string prefix of "b.bd" but not an ancestor.
	if IsAncestorOf("b.b", "b.bd") {
		t.Fatal("string-prefix sibling wrongly reported as ancestor")
	}
	if !IsAncestorOf("b.b", "b.b.d") {
		t.Fatal("true ancestor not detected")
	}
	if IsAncestorOf("b.b", "b.b") {
		t.Fatal("self is not a proper ancestor")
	}
}

func TestBetweenBasic(t *testing.T) {
	cases := []struct{ lo, hi string }{
		{"", ""}, {"b", ""}, {"", "b"}, {"b", "d"}, {"b", "c"},
		{"bb", "bd"}, {"b", "bb"}, {"0h", ""}, {"", "0h"}, {"", "1"},
		{"h", "hb"}, {"zzz", ""}, {"", "bbbb"},
	}
	for _, c := range cases {
		s := Between(c.lo, c.hi)
		if s == "" {
			t.Fatalf("Between(%q,%q) empty", c.lo, c.hi)
		}
		if c.lo != "" && s <= c.lo {
			t.Fatalf("Between(%q,%q)=%q not > lo", c.lo, c.hi, s)
		}
		if c.hi != "" && s >= c.hi {
			t.Fatalf("Between(%q,%q)=%q not < hi", c.lo, c.hi, s)
		}
	}
}

// TestBetweenSkewedInsertion simulates the dissertation's stress scenario:
// a large batch of skewed insertions focused on one region never runs out of
// keys and never requires relabeling.
func TestBetweenSkewedInsertion(t *testing.T) {
	keys := []string{Segment(0), Segment(1)}
	// Repeatedly insert just after the first key.
	for i := 0; i < 500; i++ {
		s := Between(keys[0], keys[1])
		if s <= keys[0] || s >= keys[1] {
			t.Fatalf("iteration %d: %q not strictly between %q and %q", i, s, keys[0], keys[1])
		}
		keys[1] = s
	}
	// And repeatedly before the first key.
	lo := ""
	hi := Segment(0)
	for i := 0; i < 500; i++ {
		s := Between(lo, hi)
		if s >= hi {
			t.Fatalf("iteration %d: %q not < %q", i, s, hi)
		}
		hi = s
	}
}

func TestBetweenRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := []string{Segment(0)}
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(keys) + 1)
		var lo, hi string
		if j > 0 {
			lo = keys[j-1]
		}
		if j < len(keys) {
			hi = keys[j]
		}
		s := Between(lo, hi)
		keys = append(keys, "")
		copy(keys[j+1:], keys[j:])
		keys[j] = s
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("keys unsorted after inserting %q at %d", s, j)
		}
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %q generated", k)
		}
		seen[k] = true
	}
}

func TestDepth(t *testing.T) {
	if Depth("") != 0 || Depth("b") != 1 || Depth("b.d.f") != 3 {
		t.Fatal("Depth wrong")
	}
}

func TestLastSegment(t *testing.T) {
	if LastSegment("b.d.fh") != "fh" || LastSegment("b") != "b" {
		t.Fatal("LastSegment wrong")
	}
}

func TestSiblingBetween(t *testing.T) {
	p := Key("b")
	a := Child(p, 0)
	c := Child(p, 1)
	m := SiblingBetween(p, a, c)
	if !Less(a, m) || !Less(m, c) {
		t.Fatalf("SiblingBetween(%q,%q,%q)=%q out of range", p, a, c, m)
	}
	pp, ok := Parent(m)
	if !ok || pp != p {
		t.Fatalf("new sibling %q not a child of %q", m, p)
	}
	first := SiblingBetween(p, "", a)
	if !Less(first, a) || !IsAncestorOf(p, first) {
		t.Fatalf("before-first sibling %q wrong", first)
	}
	last := SiblingBetween(p, c, "")
	if !Less(c, last) || !IsAncestorOf(p, last) {
		t.Fatalf("after-last sibling %q wrong", last)
	}
}

// quick-check: Between output is always strictly inside the bounds for
// arbitrary generated bound pairs built from valid segments.
func TestQuickBetween(t *testing.T) {
	f := func(i, j uint8) bool {
		a, b := Segment(int(i)), Segment(int(j))
		if a == b {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		s := Between(lo, hi)
		return s > lo && s < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefix(t *testing.T) {
	cases := []struct {
		k     Key
		depth int
		want  Key
	}{
		{"b.d.f", 1, "b"}, {"b.d.f", 2, "b.d"}, {"b.d.f", 3, "b.d.f"},
		{"b.d.f", 5, "b.d.f"}, {"b", 1, "b"}, {"b.d.f", 0, ""},
	}
	for _, c := range cases {
		if got := Prefix(c.k, c.depth); got != c.want {
			t.Fatalf("Prefix(%q,%d) = %q, want %q", c.k, c.depth, got, c.want)
		}
	}
}

func TestPrefixIsAncestorChain(t *testing.T) {
	k := Key("b.d.fh.j.l")
	for d := 1; d < Depth(k); d++ {
		p := Prefix(k, d)
		if !IsAncestorOf(p, k) {
			t.Fatalf("Prefix(%q,%d)=%q is not an ancestor", k, d, p)
		}
		if Depth(p) != d {
			t.Fatalf("Prefix depth %d != %d", Depth(p), d)
		}
	}
}

// Package flexkey implements the FlexKey lexicographic order encoding used
// throughout the system (dissertation Ch 3, after [DR03]).
//
// A FlexKey identifies an XML node by the concatenation of variable-length
// byte-string segments, one per level, joined by '.'. Lexicographic
// comparison of two keys from the same document yields their relative
// document order, and a key is always a strict prefix of the keys of its
// descendants. Because segments are variable-length strings rather than
// numbers, a new key can always be generated strictly between two existing
// sibling keys, so updates never force relabeling. Since every key extends
// its parent's key by one segment, a node's parent is found from its key
// alone (Parent).
package flexkey

import (
	"strings"

	"xqview/internal/obs"
)

// Key-generation metric series: every freshly allocated key (document load,
// insert-key assignment) counts here when metrics are enabled. One
// atomic-bool load when disabled.
var cKeysGenerated = obs.Default.CounterOf("flexkey_keys_generated_total", "FlexKeys allocated (Append: load + insert assignment)")

// Sep joins the per-level segments of a key.
const Sep = "."

// Key is a FlexKey. The zero value "" is the empty key, which is a prefix of
// (and orders before) every other key.
type Key string

// alphabet holds the characters used in initially assigned segments, leaving
// gaps between consecutive siblings. The level separator '.' sorts before
// every character that can appear inside a segment ('0'..'z'), which
// preserves the ancestor-before-descendant property under plain
// lexicographic comparison.
const alphabet = "bdfhjlnprtvx"

// segFloor and segCeil bound the characters Between may generate.
const (
	segFloor = '0'
	segMid   = 'h'
)

// Segment returns the i-th (0-based) initially assigned sibling segment.
// Segments are strictly increasing in i and leave lexicographic gaps for
// later insertions. Ranks beyond the single-character range spill into
// multi-character segments prefixed by 'z' (never emitted alone), which
// keeps the sequence strictly increasing.
func Segment(i int) string {
	var b strings.Builder
	for i >= len(alphabet) {
		b.WriteByte('z')
		i -= len(alphabet)
	}
	b.WriteByte(alphabet[i])
	return b.String()
}

// Child returns the key of the i-th (0-based) child of k using the default
// gapped assignment.
func Child(k Key, i int) Key {
	return Append(k, Segment(i))
}

// Append returns k extended with one more level segment.
func Append(k Key, seg string) Key {
	if obs.Enabled() {
		cKeysGenerated.Inc()
	}
	if k == "" {
		return Key(seg)
	}
	return k + Key(Sep) + Key(seg)
}

// sepByte is Sep as a byte, for scan loops that avoid substring searches.
var sepByte = Sep[0]

// Parent returns the key with its last level removed, and false if k has no
// parent (single-segment or empty key). It is how the store finds every
// node's parent: one backward scan for the last separator.
func Parent(k Key) (Key, bool) {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] == sepByte {
			return k[:i], true
		}
	}
	return "", false
}

// LastSegment returns the final level segment of k.
func LastSegment(k Key) string {
	i := strings.LastIndex(string(k), Sep)
	if i < 0 {
		return string(k)
	}
	return string(k[i+1:])
}

// Compare compares two keys lexicographically, reporting -1, 0 or +1.
func Compare(a, b Key) int {
	return strings.Compare(string(a), string(b))
}

// Less reports whether a orders strictly before b.
func Less(a, b Key) bool { return a < b }

// IsAncestorOf reports whether a is a proper ancestor of b, i.e. a is a
// whole-segment prefix of b.
func IsAncestorOf(a, b Key) bool {
	if a == "" {
		return b != ""
	}
	if len(b) <= len(a) {
		return false
	}
	return strings.HasPrefix(string(b), string(a)) && b[len(a)] == Sep[0]
}

// IsSelfOrAncestorOf reports whether a == b or a is an ancestor of b.
func IsSelfOrAncestorOf(a, b Key) bool {
	return a == b || IsAncestorOf(a, b)
}

// Prefix returns the key formed by the first depth segments of k (k itself
// when it has fewer segments).
func Prefix(k Key, depth int) Key {
	if depth <= 0 {
		return ""
	}
	idx := 0
	for i := 0; i < depth; i++ {
		j := strings.Index(string(k[idx:]), Sep)
		if j < 0 {
			return k
		}
		idx += j + 1
	}
	return k[:idx-1]
}

// Depth returns the number of level segments in k (0 for the empty key).
func Depth(k Key) int {
	if k == "" {
		return 0
	}
	return strings.Count(string(k), Sep) + 1
}

// Between returns a segment string strictly between lo and hi in
// lexicographic order. Either bound may be empty: an empty lo means
// "before everything", an empty hi means "after everything". When both
// bounds are given, lo must order strictly before hi.
//
// The construction mirrors the dissertation's observation (Sec 3.4.4) that a
// gap can always be opened by extending a key with more characters, so no
// sequence of skewed insertions ever forces relabeling.
func Between(lo, hi string) string {
	switch {
	case lo == "" && hi == "":
		return string(segMid)
	case hi == "":
		// Anything extending lo sorts after it.
		return lo + string(segMid)
	case lo == "":
		return below(hi)
	}
	if lo >= hi {
		panic("flexkey: Between called with lo >= hi")
	}
	// Walk the common prefix.
	i := 0
	for i < len(lo) && i < len(hi) && lo[i] == hi[i] {
		i++
	}
	if i == len(lo) {
		// lo is a proper prefix of hi: extend lo with something below hi's
		// remainder.
		return lo + below(hi[i:])
	}
	// lo[i] < hi[i].
	if c := halfway(lo[i], hi[i]); c != 0 {
		return lo[:i] + string(c)
	}
	// Adjacent characters: any extension of lo still sorts before hi.
	return lo + string(segMid)
}

// below returns a non-empty segment strictly between "" and s (exclusive),
// i.e. sorting before s, for any s whose characters are >= segFloor. The
// result never equals a proper prefix that could collide with an ancestor
// because segments are compared only against sibling segments.
func below(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= segFloor {
			continue // treat floor characters as part of the prefix
		}
		if h := halfway(segFloor, c); h != 0 {
			return s[:i] + string(h)
		}
		// c == segFloor+1: demote this position to the floor and extend.
		return s[:i] + string(segFloor) + string(segMid)
	}
	panic("flexkey: no segment orders below " + s)
}

// halfway returns a byte strictly between a and b, or 0 if none exists.
func halfway(a, b byte) byte {
	if b <= a+1 {
		return 0
	}
	return a + (b-a)/2
}

// SiblingBetween returns a full key for a new node under parent, ordered
// strictly between siblings lo and hi (either of which may be "" meaning no
// bound on that side). lo and hi, when non-empty, must be children of
// parent.
func SiblingBetween(parent, lo, hi Key) Key {
	var lseg, hseg string
	if lo != "" {
		lseg = LastSegment(lo)
	}
	if hi != "" {
		hseg = LastSegment(hi)
	}
	return Append(parent, Between(lseg, hseg))
}

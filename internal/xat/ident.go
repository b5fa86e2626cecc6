// Package xat implements the XAT XML algebra of the Rainbow engine as used
// by the dissertation (Ch 2), together with the order solution of Ch 3
// (Order Schema, overriding order) and the semantic-identifier solution of
// Ch 4 (Context Schema, reproducible constructed-node ids). The same
// operator implementations serve both full view computation and the
// propagate phase of view maintenance.
package xat

import (
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/xpath"
)

// ordSep joins the components of an Ord key; it sorts below every printable
// byte so joined comparison approximates componentwise comparison, but Ord
// values are always compared componentwise (value-aware) anyway.
const ordSep = "\x1e"

// Ord is an overriding-order key: a sequence of components, each either a
// FlexKey or an order-by value. The empty Ord means "no overriding order"
// (order comes from the node identity); NoOrd means "explicitly unordered"
// (the '~' prefix of the dissertation).
type Ord string

// NoOrd marks a node whose local order is semantically irrelevant.
const NoOrd Ord = "~"

// MakeOrd builds an Ord from components.
func MakeOrd(components ...string) Ord {
	return Ord(strings.Join(components, ordSep))
}

// Components splits an Ord into its components.
func (o Ord) Components() []string {
	if o == "" || o == NoOrd {
		return nil
	}
	return strings.Split(string(o), ordSep)
}

// IsSet reports whether the Ord carries usable ordering information.
func (o Ord) IsSet() bool { return o != "" && o != NoOrd }

// Extend returns o with extra leading components (used by XML Union to
// prefix column ids while maintaining prior order).
func (o Ord) Extend(prefix string) Ord {
	if o == "" || o == NoOrd {
		return Ord(prefix)
	}
	return Ord(prefix + ordSep + string(o))
}

// CompareOrd compares two Ords componentwise. Components compare numerically
// when both are numbers, else as strings (so both FlexKeys and order-by
// values sort correctly). Unordered keys compare equal to everything, which
// makes sorting stable among them.
func CompareOrd(a, b Ord) int {
	if a == NoOrd || b == NoOrd || (a == "" && b == "") {
		return 0
	}
	// Componentwise walk over the separator without splitting: CompareOrd
	// runs inside every order-sensitive sort comparator, so it must not
	// allocate.
	as, bs := string(a), string(b)
	for {
		ac, bc := as, bs
		aMore, bMore := false, false
		if i := strings.IndexByte(as, ordSep[0]); i >= 0 {
			ac, as, aMore = as[:i], as[i+1:], true
		}
		if i := strings.IndexByte(bs, ordSep[0]); i >= 0 {
			bc, bs, bMore = bs[:i], bs[i+1:], true
		}
		if c := xpath.Compare(ac, bc); c != 0 {
			return c
		}
		switch {
		case aMore && !bMore:
			return 1
		case !aMore && bMore:
			return -1
		case !aMore:
			return 0
		}
	}
}

// bodySep joins lineage components inside an ID body.
const bodySep = "\x1d"

// ID is a semantic identifier (Def 4.3.1): an optional overriding-order
// prefix plus a body. For base nodes the body is the node's FlexKey; for
// constructed nodes it is the lineage context (source keys and/or values)
// plus the constructing Tagger's plan-stable tag, which guarantees global
// uniqueness while the lineage alone guarantees local uniqueness and
// reproducibility.
type ID struct {
	Ord         Ord
	Body        string
	Tag         int // constructing operator id; 0 for base nodes and values
	Constructed bool
}

// BaseID builds the identifier of an exposed base node.
func BaseID(k flexkey.Key) ID { return ID{Body: string(k)} }

// ConstructedID builds a constructed-node identifier from lineage
// components.
func ConstructedID(tag int, lineage []string) ID {
	return ID{Body: strings.Join(lineage, bodySep), Tag: tag, Constructed: true}
}

// Key returns a map key identifying the node independent of order prefix.
// Two nodes with equal Key are "the same node" for fusion purposes.
func (id ID) Key() string {
	if !id.Constructed {
		return "b:" + id.Body
	}
	return "c:" + itoa(id.Tag) + ":" + id.Body
}

// Order returns the ordering key of the node: the overriding order when set,
// the FlexKey body for base nodes, NoOrd otherwise (Sec 3.3.2).
func (id ID) Order() Ord {
	if id.Ord != "" {
		return id.Ord
	}
	if !id.Constructed {
		return Ord(id.Body)
	}
	return NoOrd
}

// WithOrd returns a copy of id with the overriding order set.
func (id ID) WithOrd(o Ord) ID {
	id.Ord = o
	return id
}

// String renders the id in roughly the dissertation's notation, for
// debugging ("b.b", "1994c", "T[b.b..e.f]").
func (id ID) String() string {
	body := strings.ReplaceAll(id.Body, bodySep, "..")
	if id.Constructed {
		body += "c"
	}
	if id.Ord == NoOrd {
		return "~" + body
	}
	if id.Ord != "" {
		return body + "[" + strings.Join(id.Ord.Components(), "..") + "]"
	}
	return body
}

// AppendKey appends Key() to buf, avoiding the intermediate string. Callers
// on hot paths pair it with map[string(buf)] lookups, which the compiler
// performs without materializing the string.
func (id ID) AppendKey(buf []byte) []byte {
	if !id.Constructed {
		buf = append(buf, "b:"...)
		return append(buf, id.Body...)
	}
	buf = append(buf, "c:"...)
	buf = append(buf, itoa(id.Tag)...)
	buf = append(buf, ':')
	return append(buf, id.Body...)
}

// Structural fingerprints: a content hash canonicalizing an operator
// subtree independent of which view compiled it. Two subtrees with equal
// fingerprints (verified structurally at DAG build time — the hash is a
// grouping key, not a proof) compute identical tables over identical input,
// so their per-round delta propagation can run once and fan out to every
// subscribing view (shared.go). The hash folds the operator kind, every
// defining parameter and the child fingerprints; computed annotations
// (OutCols, OrderSchema, Ctx) are deterministic functions of those and need
// no hashing.
//
// Subtrees containing a Tagger or an XML Union are never shareable: a
// Tagger's constructed identities embed its plan-local operator id, and an
// XML Union's context tags come from a plan-global sequence — both would
// leak one view's identity space into another's extent.

// FNV-1a parameters (hash/fnv is not used directly to keep the fold
// allocation-free over mixed field types).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvStr folds a string field plus a terminator so adjacent fields cannot
// alias ("ab"+"c" vs "a"+"bc").
func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// fnvUint folds an 8-byte value.
func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvBool(h uint64, b bool) uint64 {
	if b {
		return fnvUint(h, 1)
	}
	return fnvUint(h, 0)
}

// patternString renders a Tagger pattern canonically for hashing and
// structural comparison (Describe only shows the element name).
func patternString(p *TagPattern) string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(p.Name)
	for _, a := range p.Attrs {
		b.WriteString("|@" + a.Name + "=")
		writePatternParts(&b, a.Parts)
	}
	b.WriteString("|")
	writePatternParts(&b, p.Content)
	return b.String()
}

func writePatternParts(b *strings.Builder, parts []PatternPart) {
	for _, part := range parts {
		if part.IsCol {
			b.WriteString("{" + part.Col + "}")
		} else {
			b.WriteString(part.Lit)
		}
	}
}

// fingerprintOp computes the subtree fingerprint and shareability of o.
// Child fingerprints must already be computed (Analyze walks inputs first).
func fingerprintOp(o *Op) (uint64, bool) {
	h := fnvOffset64
	h = fnvUint(h, uint64(o.Kind))
	h = fnvStr(h, o.Doc)
	h = fnvStr(h, o.InCol)
	h = fnvStr(h, o.OutCol)
	if o.Path != nil {
		h = fnvStr(h, o.Path.String())
	}
	h = fnvStr(h, condString(o.Conds))
	for _, c := range o.GroupCols {
		h = fnvStr(h, c)
	}
	h = fnvUint(h, uint64(len(o.GroupCols)))
	for _, c := range o.CarryCols {
		h = fnvStr(h, c)
	}
	h = fnvUint(h, uint64(len(o.CarryCols)))
	h = fnvBool(h, o.GroupByID)
	h = fnvStr(h, o.Agg)
	for _, c := range o.OrderCols {
		h = fnvStr(h, c)
	}
	h = fnvStr(h, patternString(o.Pattern))
	for _, c := range o.UnionCols {
		h = fnvStr(h, c)
	}
	h = fnvBool(h, o.Unordered)
	share := o.Kind != OpTagger && o.Kind != OpXMLUnion
	for _, in := range o.Inputs {
		h = fnvUint(h, in.fp)
		share = share && in.fpShare
	}
	h = fnvUint(h, uint64(len(o.Inputs)))
	return h, share
}

// Fingerprint returns the structural content hash of the subtree rooted at
// o, assigned by Analyze. It is independent of the plan the subtree belongs
// to (operator ids and view names do not participate).
func (o *Op) Fingerprint() uint64 { return o.fp }

// Shareable reports whether the subtree rooted at o may be maintained once
// and fanned out across views: no operator in it constructs identities that
// embed plan-local state (Tagger tags, XML Union context tags).
func (o *Op) Shareable() bool { return o.fpShare }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

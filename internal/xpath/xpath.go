// Package xpath implements the XPath subset used by the view definition
// language, the update language and the SAPT relevancy checker: child (/)
// and descendant (//) axes, name and wildcard tests, attribute steps,
// text(), positional predicates and value-comparison predicates
// (dissertation Ch 2.1).
package xpath

import (
	"fmt"
	"slices"
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

// Axis selects the navigation axis of a step.
type Axis int

const (
	// Child is the "/" axis.
	Child Axis = iota
	// Descendant is the "//" axis (descendant-or-self::node()/child::test).
	Descendant
)

// TestKind classifies the node test of a step.
type TestKind int

const (
	// ElemTest matches element nodes by name ("*" matches any).
	ElemTest TestKind = iota
	// AttrTest matches attribute nodes by name.
	AttrTest
	// TextTest matches text nodes (text()).
	TextTest
)

// Pred is a step predicate: either positional ([n], 1-based) or a value
// comparison / existence test on a relative path.
type Pred struct {
	Pos  int    // > 0 for positional predicates
	Path *Path  // relative path (nil for positional)
	Op   string // "", "=", "!=", "<", "<=", ">", ">="; "" means existence
	Lit  string // literal compared against
}

// Step is one location step.
type Step struct {
	Axis  Axis
	Kind  TestKind
	Name  string
	Preds []Pred
}

// Path is a relative location path (sequence of steps).
type Path struct {
	Steps []Step
}

// String renders the path in XPath syntax.
func (p *Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 || s.Axis == Descendant {
			if s.Axis == Descendant {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
		}
		switch s.Kind {
		case AttrTest:
			b.WriteString("@" + s.Name)
		case TextTest:
			b.WriteString("text()")
		default:
			b.WriteString(s.Name)
		}
		for _, pr := range s.Preds {
			if pr.Pos > 0 {
				fmt.Fprintf(&b, "[%d]", pr.Pos)
			} else if pr.Op == "" {
				fmt.Fprintf(&b, "[%s]", pr.Path)
			} else {
				fmt.Fprintf(&b, "[%s %s %q]", pr.Path, pr.Op, pr.Lit)
			}
		}
	}
	return b.String()
}

// Parse parses a relative path such as bib/book[2]/title,
// people//person[@id = "p1"]/name or prices/entry/price/text().
// A leading "/" or "//" is accepted and taken as the axis of the first step.
func Parse(src string) (*Path, error) {
	p := &parser{src: src}
	path, err := p.parsePath()
	if err != nil {
		return nil, fmt.Errorf("xpath: parsing %q: %w", src, err)
	}
	p.skipWS()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("xpath: trailing input at %d in %q", p.pos, src)
	}
	return path, nil
}

// ParsePrefix parses a path at the start of src and returns it together with
// the number of bytes consumed, leaving any trailing input (e.g. the rest of
// an enclosing XQuery expression) untouched.
func ParsePrefix(src string) (*Path, int, error) {
	p := &parser{src: src}
	path, err := p.parsePath()
	if err != nil {
		return nil, 0, fmt.Errorf("xpath: parsing prefix of %q: %w", src, err)
	}
	return path, p.pos, nil
}

// MustParse is Parse that panics on error, for static paths in tests and
// generators.
func MustParse(src string) *Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *parser) parsePath() (*Path, error) {
	path := &Path{}
	axis := Child
	p.skipWS()
	if strings.HasPrefix(p.src[p.pos:], "//") {
		axis = Descendant
		p.pos += 2
	} else if p.peek() == '/' {
		p.pos++
	}
	for {
		st, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, st)
		if strings.HasPrefix(p.src[p.pos:], "//") {
			axis = Descendant
			p.pos += 2
			continue
		}
		if p.peek() == '/' {
			axis = Child
			p.pos++
			continue
		}
		return path, nil
	}
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == ':' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected name at offset %d", p.pos)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) parseStep(axis Axis) (Step, error) {
	st := Step{Axis: axis}
	switch {
	case p.peek() == '@':
		p.pos++
		name, err := p.parseName()
		if err != nil {
			return st, err
		}
		st.Kind, st.Name = AttrTest, name
	case p.peek() == '*':
		p.pos++
		st.Kind, st.Name = ElemTest, "*"
	case strings.HasPrefix(p.src[p.pos:], "text()"):
		p.pos += len("text()")
		st.Kind = TextTest
	default:
		name, err := p.parseName()
		if err != nil {
			return st, err
		}
		st.Kind, st.Name = ElemTest, name
	}
	for p.peek() == '[' {
		pred, err := p.parsePred()
		if err != nil {
			return st, err
		}
		st.Preds = append(st.Preds, pred)
	}
	return st, nil
}

func (p *parser) parsePred() (Pred, error) {
	p.pos++ // consume '['
	p.skipWS()
	var pred Pred
	// Positional?
	if c := p.peek(); c >= '0' && c <= '9' {
		n := 0
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			n = n*10 + int(p.src[p.pos]-'0')
			p.pos++
		}
		pred.Pos = n
	} else {
		sub, err := p.parsePath()
		if err != nil {
			return pred, err
		}
		pred.Path = sub
		p.skipWS()
		for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
			if strings.HasPrefix(p.src[p.pos:], op) {
				pred.Op = op
				p.pos += len(op)
				break
			}
		}
		if pred.Op != "" {
			p.skipWS()
			lit, err := p.parseLiteral()
			if err != nil {
				return pred, err
			}
			pred.Lit = lit
		}
	}
	p.skipWS()
	if p.peek() != ']' {
		return pred, fmt.Errorf("expected ] at offset %d", p.pos)
	}
	p.pos++
	return pred, nil
}

func (p *parser) parseLiteral() (string, error) {
	q := p.peek()
	if q != '"' && q != '\'' {
		return "", fmt.Errorf("expected string literal at offset %d", p.pos)
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos == len(p.src) {
		return "", fmt.Errorf("unterminated literal")
	}
	lit := p.src[start:p.pos]
	p.pos++
	return lit, nil
}

// Eval evaluates the path starting from node start, returning the matched
// node keys in document order (without duplicates).
func Eval(r xmldoc.Reader, start flexkey.Key, path *Path) []flexkey.Key {
	ctx := []flexkey.Key{start}
	for i := range path.Steps {
		ctx = evalStep(r, ctx, &path.Steps[i])
		if len(ctx) == 0 {
			return nil
		}
	}
	return ctx
}

// evalStep applies one location step to every context node. Contexts are
// distinct and in document order (Eval starts from one node, and each
// step's output is), yet contexts nested in one another — a descendant
// step's, or a child step's under nested names — can reach nodes out of
// order, and a descendant step can reach a node twice: output that is not
// strictly increasing is sorted into document order and compacted.
func evalStep(r xmldoc.Reader, ctx []flexkey.Key, st *Step) []flexkey.Key {
	if len(ctx) == 1 {
		return applyPreds(r, stepFrom(r, ctx[0], st), st.Preds)
	}
	var out []flexkey.Key
	for _, c := range ctx {
		out = append(out, applyPreds(r, stepFrom(r, c, st), st.Preds)...)
	}
	order := strings.Compare
	if st.Kind == AttrTest {
		order = attrOrder
	}
	for i := 1; i < len(out); i++ {
		if order(string(out[i-1]), string(out[i])) >= 0 {
			slices.SortFunc(out, func(a, b flexkey.Key) int { return order(string(a), string(b)) })
			return slices.Compact(out)
		}
	}
	return out
}

// attrOrder compares attribute keys in document order. Key order is
// document order for elements and text, but an attribute's '@' segment can
// sort after a sibling segment that inserts before the first child opened
// below '@', so attributes order by their element first: an element's
// attributes precede its descendants'.
func attrOrder(a, b string) int {
	ea, _ := flexkey.Parent(flexkey.Key(a))
	eb, _ := flexkey.Parent(flexkey.Key(b))
	if c := strings.Compare(string(ea), string(eb)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// stepFrom returns the nodes the step's axis and node test reach from one
// context node, in document order, before predicates.
func stepFrom(r xmldoc.Reader, c flexkey.Key, st *Step) []flexkey.Key {
	switch st.Kind {
	case AttrTest:
		if st.Axis == Descendant {
			var matched []flexkey.Key
			for _, e := range append([]flexkey.Key{c}, xmldoc.DescendantElems(r, c, "*")...) {
				if a, ok := xmldoc.Attribute(r, e, st.Name); ok {
					matched = append(matched, a)
				}
			}
			return matched
		}
		if a, ok := xmldoc.Attribute(r, c, st.Name); ok {
			return []flexkey.Key{a}
		}
		return nil
	case TextTest:
		if st.Axis == Descendant {
			return descendantTexts(r, c)
		}
		return xmldoc.TextChildren(r, c)
	default:
		if st.Axis == Descendant {
			return xmldoc.DescendantElems(r, c, st.Name)
		}
		return xmldoc.ChildElems(r, c, st.Name)
	}
}

func descendantTexts(r xmldoc.Reader, k flexkey.Key) []flexkey.Key {
	var out []flexkey.Key
	var walk func([]flexkey.Key)
	walk = func(cs []flexkey.Key) {
		for _, c := range cs {
			n, ok := r.Node(c)
			if !ok {
				continue
			}
			switch n.Kind {
			case xmldoc.Text:
				out = append(out, c)
			case xmldoc.Element:
				walk(n.Children)
			}
		}
	}
	walk(r.Children(k))
	return out
}

func applyPreds(r xmldoc.Reader, nodes []flexkey.Key, preds []Pred) []flexkey.Key {
	for _, pr := range preds {
		if pr.Pos > 0 {
			if pr.Pos <= len(nodes) {
				nodes = nodes[pr.Pos-1 : pr.Pos]
			} else {
				nodes = nil
			}
			continue
		}
		var kept []flexkey.Key
		for _, n := range nodes {
			if evalPred(r, n, pr) {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	return nodes
}

func evalPred(r xmldoc.Reader, n flexkey.Key, pr Pred) bool {
	targets := Eval(r, n, pr.Path)
	if pr.Op == "" {
		return len(targets) > 0
	}
	for _, t := range targets {
		if CompareValues(xmldoc.StringValue(r, t), pr.Op, pr.Lit) {
			return true // existential semantics
		}
	}
	return false
}

// CompareValues applies comparison op between two string values, using
// numeric comparison when both parse as numbers (XQuery general comparison
// on untyped data), else string comparison.
func CompareValues(a, op, b string) bool {
	af, aok := ParseNum(a)
	bf, bok := ParseNum(b)
	var cmp int
	if aok && bok {
		switch {
		case af < bf:
			cmp = -1
		case af > bf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a, b)
	}
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// ParseNum is CompareValues' notion of a number: an optional minus sign,
// digits and at most one dot, surrounding white space ignored. Two values it
// accepts compare by the numbers it returns, so an index that wants to agree
// with CompareValues on "=" keys such values by that number.
func ParseNum(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	var f float64
	var frac float64
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	seenDot := false
	scale := 0.1
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if seenDot {
				frac += float64(c-'0') * scale
				scale /= 10
			} else {
				f = f*10 + float64(c-'0')
			}
		case c == '.' && !seenDot:
			seenDot = true
		default:
			return 0, false
		}
	}
	f += frac
	if neg {
		f = -f
	}
	return f, true
}

package update

import (
	"fmt"
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// ParseAndEvaluate parses one or more XQuery update statements ([TIHW01],
// as used in Fig 1.3) and evaluates them against the store, returning the
// resulting update primitives. Supported statement form:
//
//	for $v in document("doc")/path
//	[ where $v/path op "literal" [ and ... ] ]
//	update $v
//	( insert <fragment/> (after|before|into) $v[/path]
//	| delete $v[/path]
//	| replace $v/path with "literal" )
//
// Every statement is evaluated against the store as it is on entry (nothing
// here writes it), so a script is one batch: the primitives of all
// statements, in statement order. Statements are parsed and evaluated one
// after the other — the first error, of either kind, is the one returned —
// but through one evaluation context (scriptEval), so a script costs one
// evaluation of each distinct for-path and, from the second "=" probe of
// one where-path, a hash lookup per statement instead of a scan. A script
// in which a delete or replace targets a node an earlier primitive deletes
// is rejected (scriptEval.conflict).
func ParseAndEvaluate(s *xmldoc.Store, src string) ([]*Primitive, error) {
	p := &uparser{src: src}
	e := scriptEval{store: s}
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			break
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if err := e.evaluate(stmt); err != nil {
			return nil, err
		}
	}
	if err := e.conflict(); err != nil {
		return nil, err
	}
	return e.prims, nil
}

type ucond struct {
	path *xpath.Path
	src  string // source text of path ("" when the condition is on $v itself)
	op   string
	lit  string
}

type statement struct {
	offset  int // source offset of the statement's 'for'
	varName string
	doc     string
	path    *xpath.Path
	pathSrc string // source text of path
	conds   []ucond

	action   Kind
	frag     *xmldoc.Frag
	position string      // after | before | into (insert)
	target   *xpath.Path // relative path from $v (nil = $v itself)
	newValue string      // replace

	evalState
}

type uparser struct {
	src string
	pos int
}

func (p *uparser) errf(format string, args ...any) error {
	return fmt.Errorf("update: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *uparser) skipWS() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *uparser) keyword(kw string) bool {
	p.skipWS()
	r := p.src[p.pos:]
	if len(r) < len(kw) || !strings.EqualFold(r[:len(kw)], kw) {
		return false
	}
	if len(r) > len(kw) {
		c := r[len(kw)]
		if c == '_' || c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			return false
		}
	}
	p.pos += len(kw)
	return true
}

func (p *uparser) name() (string, error) {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", p.errf("expected name")
	}
	return p.src[start:p.pos], nil
}

func (p *uparser) stringLit() (string, error) {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '"' && p.src[p.pos] != '\'' {
		return "", p.errf("expected string literal")
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated string literal")
	}
	v := p.src[start:p.pos]
	p.pos++
	return v, nil
}

func (p *uparser) varRef() (string, error) {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '$' {
		return "", p.errf("expected $variable")
	}
	p.pos++
	return p.name()
}

// varPath parses $v with an optional relative path, verifying the variable.
func (p *uparser) varPath(expect string) (*xpath.Path, string, error) {
	v, err := p.varRef()
	if err != nil {
		return nil, "", err
	}
	if v != expect {
		return nil, "", p.errf("unexpected variable $%s (bound variable is $%s)", v, expect)
	}
	return p.optPath()
}

// optPath parses the path that follows a document(...) call or a variable
// reference, if there is one, and returns it with its source text. Equal
// texts are equal paths, which is what the script evaluator keys its shared
// binding lists and value columns on.
func (p *uparser) optPath() (*xpath.Path, string, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '/' {
		return nil, "", nil
	}
	path, n, err := xpath.ParsePrefix(p.src[p.pos:])
	if err != nil {
		return nil, "", err
	}
	p.pos += n
	return path, p.src[p.pos-n : p.pos], nil
}

func (p *uparser) parseStatement() (*statement, error) {
	st := &statement{offset: p.pos}
	if !p.keyword("for") {
		return nil, p.errf("expected 'for'")
	}
	v, err := p.varRef()
	if err != nil {
		return nil, err
	}
	st.varName = v
	if !p.keyword("in") {
		return nil, p.errf("expected 'in'")
	}
	if !p.keyword("document") && !p.keyword("doc") {
		return nil, p.errf("expected document(...)")
	}
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, p.errf("expected (")
	}
	p.pos++
	st.doc, err = p.stringLit()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, p.errf("expected )")
	}
	p.pos++
	if st.path, st.pathSrc, err = p.optPath(); err != nil {
		return nil, err
	}
	if p.keyword("where") {
		for {
			cpath, csrc, err := p.varPath(st.varName)
			if err != nil {
				return nil, err
			}
			var op string
			p.skipWS()
			for _, o := range []string{"!=", "<=", ">=", "=", "<", ">"} {
				if strings.HasPrefix(p.src[p.pos:], o) {
					op = o
					p.pos += len(o)
					break
				}
			}
			if op == "" {
				return nil, p.errf("expected comparison operator in where")
			}
			lit, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			st.conds = append(st.conds, ucond{path: cpath, src: csrc, op: op, lit: lit})
			if !p.keyword("and") {
				break
			}
		}
	}
	if !p.keyword("update") {
		return nil, p.errf("expected 'update'")
	}
	if _, _, err := p.varPath(st.varName); err != nil {
		return nil, err
	}
	switch {
	case p.keyword("insert"):
		st.action = Insert
		frag, err := p.fragment()
		if err != nil {
			return nil, err
		}
		st.frag = frag
		switch {
		case p.keyword("after"):
			st.position = "after"
		case p.keyword("before"):
			st.position = "before"
		case p.keyword("into"):
			st.position = "into"
		default:
			return nil, p.errf("expected after/before/into")
		}
		st.target, _, err = p.varPath(st.varName)
		if err != nil {
			return nil, err
		}
	case p.keyword("delete"):
		st.action = Delete
		tgt, _, err := p.varPath(st.varName)
		if err != nil {
			return nil, err
		}
		st.target = tgt
	case p.keyword("replace"):
		st.action = Replace
		tgt, _, err := p.varPath(st.varName)
		if err != nil {
			return nil, err
		}
		st.target = tgt
		if !p.keyword("with") {
			return nil, p.errf("expected 'with'")
		}
		st.newValue, err = p.stringLit()
		if err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected insert/delete/replace")
	}
	return st, nil
}

// fragment parses one balanced XML element at the cursor. A fragment is an
// element: a leading comment or processing instruction is not skipped.
func (p *uparser) fragment() (*xmldoc.Frag, error) {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return nil, p.errf("expected XML fragment")
	}
	rest := p.src[p.pos:]
	if strings.HasPrefix(rest, "<!") || strings.HasPrefix(rest, "<?") {
		return nil, p.errf("bad XML fragment: xmldoc: no root element")
	}
	f, n, err := xmldoc.ParsePrefix(rest)
	if err != nil {
		return nil, p.errf("bad XML fragment: %v", err)
	}
	p.pos += n
	return f, nil
}

func (st *statement) primitiveFor(s *xmldoc.Store, tgt flexkey.Key) (*Primitive, error) {
	switch st.action {
	case Insert:
		p := &Primitive{Kind: Insert, Doc: st.doc, Frag: st.frag.Clone()}
		switch st.position {
		case "into":
			p.Parent = tgt
			cs := s.Children(tgt)
			if len(cs) > 0 {
				p.After = cs[len(cs)-1]
			}
		case "after", "before":
			parent := s.Parent(tgt)
			if parent == "" {
				return nil, fmt.Errorf("update: cannot insert beside the root")
			}
			p.Parent = parent
			cs := s.Children(parent)
			idx := -1
			for i, c := range cs {
				if c == tgt {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("update: target %s not among its parent's children", tgt)
			}
			if st.position == "after" {
				p.After = tgt
				if idx+1 < len(cs) {
					p.Before = cs[idx+1]
				}
			} else {
				p.Before = tgt
				if idx > 0 {
					p.After = cs[idx-1]
				}
			}
		}
		return p, nil
	case Delete:
		return &Primitive{Kind: Delete, Doc: st.doc, Key: tgt}, nil
	case Replace:
		n, ok := s.Node(tgt)
		if !ok {
			return nil, fmt.Errorf("update: replace target %s missing", tgt)
		}
		if n.Kind == xmldoc.Element {
			// Replacing an element's text: target its single text child.
			texts := xmldoc.TextChildren(s, tgt)
			if len(texts) != 1 {
				return nil, fmt.Errorf("update: replace of element %s with %d text children", tgt, len(texts))
			}
			tgt = texts[0]
		}
		return &Primitive{Kind: Replace, Doc: st.doc, Key: tgt, NewValue: st.newValue}, nil
	}
	return nil, fmt.Errorf("update: unknown action")
}

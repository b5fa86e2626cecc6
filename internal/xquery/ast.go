// Package xquery implements the XQuery subset of dissertation Fig 2.1:
// FLWOR expressions (for/let/where/order by/return), XPath expressions over
// doc() and variables, direct element constructors, sequence expressions,
// distinct-values and the standard aggregate functions. It provides the AST,
// a recursive-descent parser tolerant of the dissertation's query style
// (case-insensitive keywords, bare FLWORs inside element content), and the
// source-level normalization of Sec 2.3.1.
package xquery

import (
	"fmt"
	"strings"

	"xqview/internal/xpath"
)

// Expr is any XQuery expression node.
type Expr interface {
	exprNode()
	String() string
}

// PathExpr is a path expression rooted at a document (doc("bib.xml")/bib/...)
// or at a variable ($b/title). A nil Path means the root item itself.
type PathExpr struct {
	Doc  string // document name when doc()-rooted
	Var  string // variable name (without '$') when variable-rooted
	Path *xpath.Path
}

func (*PathExpr) exprNode() {}

func (p *PathExpr) String() string {
	var b strings.Builder
	if p.Doc != "" {
		fmt.Fprintf(&b, "doc(%q)", p.Doc)
	} else {
		b.WriteString("$" + p.Var)
	}
	if p.Path != nil && len(p.Path.Steps) > 0 {
		b.WriteString("/")
		b.WriteString(p.Path.String())
	}
	return b.String()
}

// Literal is a string or numeric literal.
type Literal struct {
	Val string
}

func (*Literal) exprNode()        {}
func (l *Literal) String() string { return fmt.Sprintf("%q", l.Val) }

// BindKind distinguishes for from let bindings.
type BindKind int

const (
	// ForBind is a for-clause binding (iteration).
	ForBind BindKind = iota
	// LetBind is a let-clause binding (aliasing; inlined by Normalize).
	LetBind
)

// Binding is one variable binding of a FLWOR clause.
type Binding struct {
	Kind BindKind
	Var  string
	Src  Expr
}

// Comparison is a general comparison between two operands.
type Comparison struct {
	L  Expr
	Op string // =, !=, <, <=, >, >=
	R  Expr
}

// Cond is a where-clause condition: a comparison, or a conjunction /
// disjunction of conditions.
type Cond struct {
	Op  string // "and", "or", or "" for a leaf comparison
	L   *Cond
	R   *Cond
	Cmp *Comparison
}

func (c *Cond) String() string {
	if c == nil {
		return ""
	}
	if c.Op == "" {
		return fmt.Sprintf("%s %s %s", c.Cmp.L, c.Cmp.Op, c.Cmp.R)
	}
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// Clone deep-copies the condition tree.
func (c *Cond) Clone() *Cond {
	if c == nil {
		return nil
	}
	out := &Cond{Op: c.Op, L: c.L.Clone(), R: c.R.Clone()}
	if c.Cmp != nil {
		cmp := *c.Cmp
		out.Cmp = &cmp
	}
	return out
}

// Leaves appends all leaf comparisons of the condition tree to dst.
func (c *Cond) Leaves(dst []*Comparison) []*Comparison {
	if c == nil {
		return dst
	}
	if c.Op == "" {
		return append(dst, c.Cmp)
	}
	return c.R.Leaves(c.L.Leaves(dst))
}

// OrderSpec is one key of an order by clause.
type OrderSpec struct {
	Expr Expr
	Desc bool
}

// FLWOR is a FLWOR expression.
type FLWOR struct {
	Bindings []Binding
	Where    *Cond
	OrderBy  []OrderSpec
	Return   Expr
}

func (*FLWOR) exprNode() {}

func (f *FLWOR) String() string {
	var b strings.Builder
	for _, bd := range f.Bindings {
		kw := "for"
		op := "in"
		if bd.Kind == LetBind {
			kw, op = "let", ":="
		}
		fmt.Fprintf(&b, "%s $%s %s %s ", kw, bd.Var, op, bd.Src)
	}
	if f.Where != nil {
		fmt.Fprintf(&b, "where %s ", f.Where)
	}
	for i, o := range f.OrderBy {
		if i == 0 {
			b.WriteString("order by ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.Expr.String())
		if o.Desc {
			b.WriteString(" descending")
		}
	}
	if len(f.OrderBy) > 0 {
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "return %s", f.Return)
	return b.String()
}

// AttrCons is an attribute of a direct element constructor; Parts mixes
// literal text (Literal) and embedded expressions.
type AttrCons struct {
	Name  string
	Parts []Expr
}

// ElemCons is a direct element constructor.
type ElemCons struct {
	Name    string
	Attrs   []AttrCons
	Content []Expr
}

func (*ElemCons) exprNode() {}

func (e *ElemCons) String() string {
	var b strings.Builder
	b.WriteString("<" + e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, ` %s="`, a.Name)
		for _, p := range a.Parts {
			if l, ok := p.(*Literal); ok {
				b.WriteString(l.Val)
			} else {
				fmt.Fprintf(&b, "{%s}", p)
			}
		}
		b.WriteString(`"`)
	}
	if len(e.Content) == 0 {
		b.WriteString("/>")
		return b.String()
	}
	b.WriteString(">")
	for _, c := range e.Content {
		if l, ok := c.(*Literal); ok {
			b.WriteString(l.Val)
		} else {
			fmt.Fprintf(&b, "{%s}", c)
		}
	}
	b.WriteString("</" + e.Name + ">")
	return b.String()
}

// Seq is a comma sequence of expressions.
type Seq struct {
	Items []Expr
}

func (*Seq) exprNode() {}

func (s *Seq) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// FuncCall is a supported built-in function call: distinct-values, count,
// sum, avg, min, max.
type FuncCall struct {
	Name string
	Args []Expr
}

func (*FuncCall) exprNode() {}

func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// AggregateFuncs lists the supported aggregate function names.
var AggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

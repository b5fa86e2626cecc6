// Package compile translates normalized XQuery expressions into XAT algebra
// plans (Sec 2.3/2.4). Nested FLWOR expressions are compiled directly into
// their decorrelated form — the Map operator of the dissertation is never
// materialized: a nested FLWOR over independent sources becomes a Left Outer
// Join on the correlation predicates followed by a GroupBy/Combine on the
// outer iteration columns, exactly the plan shape of Fig 2.2.
//
// Matching the dissertation's plan semantics (and its expected results,
// Fig 1.4), a group whose inner iteration becomes empty disappears from the
// result together with its constructed ancestors.
package compile

import (
	"fmt"

	"xqview/internal/xat"
	"xqview/internal/xquery"
)

// Compile parses, normalizes and compiles an XQuery view definition into an
// analyzed XAT plan.
func Compile(src string) (*xat.Plan, error) {
	ast, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileExpr(ast)
}

// NoOptimize disables the Minimum Schema pruning pass (Sec 2.4): the
// unoptimized plan is the reference the optimizer tests compare against.
var NoOptimize = false

// CompileExpr compiles an already-parsed XQuery expression.
func CompileExpr(ast xquery.Expr) (*xat.Plan, error) {
	norm, err := xquery.Normalize(ast)
	if err != nil {
		return nil, err
	}
	c := &compiler{colKind: make(map[string]colKind)}
	op, col, err := c.compileTop(norm)
	if err != nil {
		return nil, err
	}
	root := &xat.Op{Kind: xat.OpExpose, InCol: col, Inputs: []*xat.Op{op}}
	plan, err := xat.Analyze(root)
	if err != nil {
		return nil, err
	}
	if NoOptimize {
		return plan, nil
	}
	return xat.Optimize(plan)
}

// markUnordered flags the sequence-producing operator at the top of a
// compiled expression (a Combine or a grouping) as unordered.
func markUnordered(op *xat.Op) {
	if op.Kind == xat.OpCombine || op.Kind == xat.OpGroupBy {
		op.Unordered = true
	}
}

type colKind int

const (
	nodeCol colKind = iota
	valueCol
)

// scope maps in-scope variables to their columns during compilation.
type scope struct {
	vars map[string]string
	// keyCols are the iteration columns that uniquely identify a tuple of
	// the current pipeline (for-binding and distinct columns). They become
	// the grouping columns when a nested FLWOR regroups per outer tuple.
	keyCols []string
	// allCols tracks every column of the pipeline (for GroupBy carry).
	allCols []string
}

func (s *scope) clone() *scope {
	ns := &scope{vars: make(map[string]string, len(s.vars))}
	for k, v := range s.vars {
		ns.vars[k] = v
	}
	ns.keyCols = append([]string(nil), s.keyCols...)
	ns.allCols = append([]string(nil), s.allCols...)
	return ns
}

type compiler struct {
	colSeq  int
	colKind map[string]colKind
}

func (c *compiler) newCol() string {
	c.colSeq++
	return fmt.Sprintf("$c%d", c.colSeq)
}

// compileTop compiles the whole query to an operator whose output column
// holds the result sequence in a single tuple.
func (c *compiler) compileTop(e xquery.Expr) (*xat.Op, string, error) {
	switch x := e.(type) {
	case *xquery.FLWOR:
		return c.compileFLWOR(x, nil, nil)
	case *xquery.ElemCons:
		return c.compileDetachedConstructor(x)
	case *xquery.PathExpr:
		if x.Doc == "" {
			return nil, "", fmt.Errorf("compile: top-level expression references unbound variable $%s", x.Var)
		}
		op, col, _, err := c.compileDocIteration(x, false)
		if err != nil {
			return nil, "", err
		}
		comb := &xat.Op{Kind: xat.OpCombine, InCol: col, Inputs: []*xat.Op{op}}
		return comb, col, nil
	case *xquery.FuncCall:
		if x.Name == "unordered" {
			// unordered(expr): evaluate expr but skip order-key assignment
			// for the produced sequence (Sec 3.1 — sequences become sets,
			// opening optimization opportunities).
			op, col, err := c.compileTop(x.Args[0])
			if err != nil {
				return nil, "", err
			}
			markUnordered(op)
			return op, col, nil
		}
		op, col, err := c.compileFuncDetached(x)
		if err != nil {
			return nil, "", err
		}
		comb := &xat.Op{Kind: xat.OpCombine, InCol: col, Inputs: []*xat.Op{op}}
		return comb, col, nil
	}
	return nil, "", fmt.Errorf("compile: unsupported top-level expression %T", e)
}

// compileDetachedConstructor compiles an element constructor outside any
// tuple context: each embedded expression yields a single-tuple table; the
// tables are merged column-wise and tagged.
func (c *compiler) compileDetachedConstructor(e *xquery.ElemCons) (*xat.Op, string, error) {
	pattern := &xat.TagPattern{Name: e.Name}
	var cur *xat.Op
	addPart := func(op *xat.Op, col string) {
		if cur == nil {
			cur = op
		} else {
			cur = &xat.Op{Kind: xat.OpMerge, Inputs: []*xat.Op{cur, op}}
		}
	}
	for _, a := range e.Attrs {
		pa := xat.PatternAttr{Name: a.Name}
		for _, p := range a.Parts {
			switch pp := p.(type) {
			case *xquery.Literal:
				pa.Parts = append(pa.Parts, xat.PatternPart{Lit: pp.Val})
			default:
				op, col, err := c.compileTop(p)
				if err != nil {
					return nil, "", err
				}
				addPart(op, col)
				pa.Parts = append(pa.Parts, xat.PatternPart{Col: col, IsCol: true})
			}
		}
		pattern.Attrs = append(pattern.Attrs, pa)
	}
	for _, part := range e.Content {
		switch pp := part.(type) {
		case *xquery.Literal:
			pattern.Content = append(pattern.Content, xat.PatternPart{Lit: pp.Val})
		default:
			op, col, err := c.compileTop(pp)
			if err != nil {
				return nil, "", err
			}
			addPart(op, col)
			pattern.Content = append(pattern.Content, xat.PatternPart{Col: col, IsCol: true})
		}
	}
	if cur == nil {
		// Constructor with no embedded expressions: a unit pipeline.
		cur = &xat.Op{Kind: xat.OpUnit}
	}
	out := c.newCol()
	tag := &xat.Op{Kind: xat.OpTagger, OutCol: out, Pattern: pattern, Inputs: []*xat.Op{cur}}
	return tag, out, nil
}

// compileDocIteration compiles a doc-rooted path into an iteration pipeline
// (Source + Navigate Unnest). It reports whether the final step yields
// values (attribute or text targets).
func (c *compiler) compileDocIteration(p *xquery.PathExpr, collection bool) (*xat.Op, string, colKind, error) {
	rootCol := c.newCol()
	src := &xat.Op{Kind: xat.OpSource, Doc: p.Doc, OutCol: rootCol}
	if p.Path == nil || len(p.Path.Steps) == 0 {
		c.colKind[rootCol] = nodeCol
		return src, rootCol, nodeCol, nil
	}
	col := c.newCol()
	kind := xat.OpNavUnnest
	if collection {
		kind = xat.OpNavCollection
	}
	nav := &xat.Op{Kind: kind, InCol: rootCol, OutCol: col, Path: p.Path, Inputs: []*xat.Op{src}}
	k := pathKind(p)
	c.colKind[col] = k
	return nav, col, k, nil
}

func pathKind(p *xquery.PathExpr) colKind {
	if p.Path == nil || len(p.Path.Steps) == 0 {
		return nodeCol
	}
	last := p.Path.Steps[len(p.Path.Steps)-1]
	if last.Kind != 0 { // AttrTest or TextTest
		return valueCol
	}
	return nodeCol
}

func (c *compiler) compileFuncDetached(f *xquery.FuncCall) (*xat.Op, string, error) {
	arg, ok := f.Args[0].(*xquery.PathExpr)
	if !ok || arg.Doc == "" {
		return nil, "", fmt.Errorf("compile: %s over %T requires a doc-rooted path at top level", f.Name, f.Args[0])
	}
	op, col, _, err := c.compileDocIteration(arg, false)
	if err != nil {
		return nil, "", err
	}
	if f.Name == "distinct-values" {
		d := &xat.Op{Kind: xat.OpDistinct, InCol: col, Inputs: []*xat.Op{op}}
		c.colKind[col] = valueCol
		return d, col, nil
	}
	// Aggregate over the whole document: group globally.
	out := col
	g := &xat.Op{Kind: xat.OpGroupBy, GroupCols: nil, InCol: col, Agg: f.Name, Inputs: []*xat.Op{op}}
	c.colKind[out] = valueCol
	return g, out, nil
}

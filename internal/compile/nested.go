package compile

import (
	"fmt"

	"xqview/internal/xat"
	"xqview/internal/xquery"
)

// compileNested compiles an expression evaluated per tuple of pipeline cur
// (the return clause of a FLWOR, or a part of a constructor). It returns
// the extended pipeline and the column holding the expression's result.
func (c *compiler) compileNested(e xquery.Expr, cur *xat.Op, sc *scope) (*xat.Op, string, error) {
	switch x := e.(type) {
	case *xquery.PathExpr:
		if x.Doc != "" {
			// Independent source inside a per-tuple expression: a single-
			// tuple pipeline joined in (1×N cartesian).
			op, col, _, err := c.compileDocIteration(x, true)
			if err != nil {
				return nil, "", err
			}
			join := &xat.Op{Kind: xat.OpJoin, Inputs: []*xat.Op{cur, op}}
			sc.allCols = append(sc.allCols, col)
			return join, col, nil
		}
		vcol, ok := sc.vars[x.Var]
		if !ok {
			return nil, "", fmt.Errorf("compile: unbound variable $%s", x.Var)
		}
		if x.Path == nil || len(x.Path.Steps) == 0 {
			return cur, vcol, nil
		}
		col := c.newCol()
		c.colKind[col] = pathKind(x)
		nav := &xat.Op{Kind: xat.OpNavCollection, InCol: vcol, OutCol: col, Path: x.Path, Inputs: []*xat.Op{cur}}
		sc.allCols = append(sc.allCols, col)
		return nav, col, nil

	case *xquery.ElemCons:
		pattern := &xat.TagPattern{Name: x.Name}
		var err error
		for _, a := range x.Attrs {
			pa := xat.PatternAttr{Name: a.Name}
			for _, p := range a.Parts {
				if lit, ok := p.(*xquery.Literal); ok {
					pa.Parts = append(pa.Parts, xat.PatternPart{Lit: lit.Val})
					continue
				}
				var col string
				cur, col, err = c.compileNested(p, cur, sc)
				if err != nil {
					return nil, "", err
				}
				pa.Parts = append(pa.Parts, xat.PatternPart{Col: col, IsCol: true})
			}
			pattern.Attrs = append(pattern.Attrs, pa)
		}
		for _, p := range x.Content {
			if lit, ok := p.(*xquery.Literal); ok {
				pattern.Content = append(pattern.Content, xat.PatternPart{Lit: lit.Val})
				continue
			}
			var col string
			cur, col, err = c.compileNested(p, cur, sc)
			if err != nil {
				return nil, "", err
			}
			pattern.Content = append(pattern.Content, xat.PatternPart{Col: col, IsCol: true})
		}
		out := c.newCol()
		c.colKind[out] = nodeCol
		tag := &xat.Op{Kind: xat.OpTagger, OutCol: out, Pattern: pattern, Inputs: []*xat.Op{cur}}
		sc.allCols = append(sc.allCols, out)
		return tag, out, nil

	case *xquery.FLWOR:
		op, col, err := c.compileFLWOR(x, cur, sc)
		if err != nil {
			return nil, "", err
		}
		sc.allCols = append(sc.allCols, col)
		return op, col, nil

	case *xquery.FuncCall:
		if x.Name == "unordered" {
			op, col, err := c.compileNested(x.Args[0], cur, sc)
			if err != nil {
				return nil, "", err
			}
			markUnordered(op)
			return op, col, nil
		}
		if !xquery.AggregateFuncs[x.Name] {
			return nil, "", fmt.Errorf("compile: %s() is not supported in per-tuple expressions", x.Name)
		}
		// The argument may be a variable-rooted path (per-tuple aggregate)
		// or a nested FLWOR (grouped aggregate, Ch 7.6).
		switch arg := x.Args[0].(type) {
		case *xquery.PathExpr:
			if arg.Var == "" {
				return nil, "", fmt.Errorf("compile: %s() requires a variable-rooted path or FLWOR argument", x.Name)
			}
		case *xquery.FLWOR:
		default:
			return nil, "", fmt.Errorf("compile: %s() over %T is not supported", x.Name, x.Args[0])
		}
		var col string
		var err error
		cur, col, err = c.compileNested(x.Args[0], cur, sc)
		if err != nil {
			return nil, "", err
		}
		// Per-tuple aggregation: group by the iteration keys, which uniquely
		// identify the current tuples, carrying every other column through.
		carry := diffCols(xat.OutCols(cur), append(append([]string(nil), sc.keyCols...), col), "")
		byID := true
		for _, g := range sc.keyCols {
			if c.colKind[g] != nodeCol {
				byID = false
			}
		}
		g := &xat.Op{Kind: xat.OpGroupBy, GroupCols: sc.keyCols, CarryCols: carry,
			InCol: col, Agg: x.Name, GroupByID: byID, Inputs: []*xat.Op{cur}}
		c.colKind[col] = valueCol
		return g, col, nil

	case *xquery.Seq:
		if len(x.Items) == 0 {
			return nil, "", fmt.Errorf("compile: the empty sequence () is not supported in a return clause")
		}
		var cols []string
		var err error
		for _, it := range x.Items {
			var col string
			cur, col, err = c.compileNested(it, cur, sc)
			if err != nil {
				return nil, "", err
			}
			cols = append(cols, col)
		}
		for len(cols) > 1 {
			out := c.newCol()
			c.colKind[out] = nodeCol
			u := &xat.Op{Kind: xat.OpXMLUnion, OutCol: out,
				UnionCols: []string{cols[0], cols[1]}, Inputs: []*xat.Op{cur}}
			cur = u
			cols = append([]string{out}, cols[2:]...)
			sc.allCols = append(sc.allCols, out)
		}
		return cur, cols[0], nil

	case *xquery.Literal:
		return nil, "", fmt.Errorf("compile: bare literal expressions are only supported inside constructors")
	}
	return nil, "", fmt.Errorf("compile: unsupported expression %T", e)
}

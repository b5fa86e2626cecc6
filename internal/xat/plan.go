package xat

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xqview/internal/xpath"
)

// OpKind enumerates the XAT operators (Sec 2.2.2).
type OpKind int

const (
	// OpSource is S^col_doc: emits one tuple holding the document root.
	OpSource OpKind = iota
	// OpNavUnnest is φ^col'_col,path: navigate + unnest.
	OpNavUnnest
	// OpNavCollection is Φ^col'_col,path: navigate keeping collections.
	OpNavCollection
	// OpSelect is σ_c.
	OpSelect
	// OpJoin is ⋈_c.
	OpJoin
	// OpLOJ is the left outer join =⋈_c.
	OpLOJ
	// OpDistinct is δ_col (value-based duplicate elimination).
	OpDistinct
	// OpGroupBy is γ_col[1..n](T, Combine_col | aggregate).
	OpGroupBy
	// OpOrderBy is τ_col[1..n].
	OpOrderBy
	// OpCombine is C_col: collapses a column into one sequence.
	OpCombine
	// OpTagger is T^col_p: constructs new nodes.
	OpTagger
	// OpXMLUnion unions two columns of each tuple into one sequence.
	OpXMLUnion
	// OpXMLUnique removes duplicates (by node id) from sequences.
	OpXMLUnique
	// OpName renames a column.
	OpName
	// OpMerge concatenates the single tuples of two tables column-wise.
	OpMerge
	// OpExpose extracts the result column as an XML document.
	OpExpose
	// OpUnit emits a single zero-column tuple; used as the pipeline of a
	// constructor with no embedded expressions.
	OpUnit
)

var opNames = map[OpKind]string{
	OpSource: "Source", OpNavUnnest: "NavUnnest", OpNavCollection: "NavCollection",
	OpSelect: "Select", OpJoin: "Join", OpLOJ: "LOJ", OpDistinct: "Distinct",
	OpGroupBy: "GroupBy", OpOrderBy: "OrderBy", OpCombine: "Combine",
	OpTagger: "Tagger", OpXMLUnion: "XMLUnion", OpXMLUnique: "XMLUnique",
	OpName: "Name", OpMerge: "Merge", OpExpose: "Expose", OpUnit: "Unit",
}

func (k OpKind) String() string { return opNames[k] }

// CmpOperand is one side of a comparison in a Select/Join condition: a
// column reference or a literal.
type CmpOperand struct {
	Col   string
	Lit   string
	IsLit bool
}

// Cmp is one conjunct of a condition.
type Cmp struct {
	L  CmpOperand
	Op string
	R  CmpOperand
}

// PatternPart is one piece of a Tagger pattern: literal text or a column
// reference.
type PatternPart struct {
	Lit   string
	Col   string
	IsCol bool
}

// PatternAttr is one constructed attribute.
type PatternAttr struct {
	Name  string
	Parts []PatternPart
}

// TagPattern is the template of a Tagger operator.
type TagPattern struct {
	Name    string
	Attrs   []PatternAttr
	Content []PatternPart
}

// CtxSchema is the Context Schema of a column (Def 4.2.2): how to derive
// the lineage and order context of its nodes.
type CtxSchema struct {
	// HasOrder is false when no order is defined (the null prefix).
	HasOrder bool
	// OrderCols lists the columns whose keys compose the order context; an
	// empty list with HasOrder means "()": order equals the lineage keys.
	OrderCols []string
	// LngSelf means "[]": lineage is the ids/values in the column itself.
	LngSelf bool
	// LngCols are the referenced lineage columns, with UnionTags giving the
	// distinguishing ColID per column ("" when none).
	LngCols   []string
	UnionTags []string
	// All means "[*]": the column is one big combined collection.
	All bool
}

func (c *CtxSchema) String() string {
	var b strings.Builder
	if c.HasOrder {
		b.WriteString("(" + strings.Join(c.OrderCols, ",") + ")")
	}
	switch {
	case c.All:
		b.WriteString("[*]")
	case c.LngSelf:
		b.WriteString("[]")
	default:
		parts := make([]string, len(c.LngCols))
		for i, l := range c.LngCols {
			parts[i] = l
			if c.UnionTags[i] != "" {
				parts[i] += "{" + c.UnionTags[i] + "}"
			}
		}
		b.WriteString("[" + strings.Join(parts, ",") + "]")
	}
	return b.String()
}

// Op is one operator node of an XAT algebra plan (a tree; common
// subexpressions are not shared in this implementation).
type Op struct {
	Kind   OpKind
	ID     int // stable within a plan; part of constructed-node identity
	Inputs []*Op

	// Parameters (used according to Kind):
	Doc       string      // Source
	InCol     string      // navigations, Combine, Distinct, XMLUnique, Name, Expose
	OutCol    string      // navigations, Tagger, XMLUnion, XMLUnique, Name
	Path      *xpath.Path // navigations
	Conds     []Cmp       // Select / Join / LOJ (conjunction)
	GroupCols []string    // GroupBy
	CarryCols []string    // GroupBy: functionally dependent columns passed through
	GroupByID bool        // GroupBy: id-based (nesting) vs value-based
	Agg       string      // GroupBy: "" for Combine(InCol), else count/sum/avg/min/max over InCol
	OrderCols []string    // OrderBy keys
	Pattern   *TagPattern // Tagger
	UnionCols []string    // XMLUnion inputs (len 2)
	Unordered bool        // Combine/GroupBy: skip order-key assignment (unordered(), Sec 3.1)

	// Computed schema annotations (Analyze):
	OutCols     []string
	OrderSchema []string // Table Order Schema (Table 3.1)
	Ctx         map[string]*CtxSchema
	ECC         []string
	osVal       bool // Order Schema columns hold order-by values, not keys

	// Hot-path precomputations (Analyze):
	proto      *Table       // empty table of the output shape; clones share Cols/colIdx
	navSingles []xpath.Path // navigations: one single-step path per Path step

	// Structural fingerprint (Analyze; see ident.go): a content hash over
	// the operator kind, parameters and child fingerprints — independent of
	// which view compiled the subtree — plus whether the subtree may be
	// maintained once and shared across views.
	fp      uint64
	fpShare bool
}

// Plan is an analyzed algebra tree rooted at an Expose operator.
type Plan struct {
	Root *Op
	// UnionSeq numbers XML Union inputs across the plan in depth-first
	// order, providing the ColID keys of Sec 4.2.2.
	ops []*Op
}

// Ops returns all operators in depth-first (inputs first) order.
func (p *Plan) Ops() []*Op { return p.ops }

// Find returns the first operator of the given kind in depth-first order,
// or nil.
func (p *Plan) Find(kind OpKind) *Op {
	for _, o := range p.ops {
		if o.Kind == kind {
			return o
		}
	}
	return nil
}

// ResultCol names the column of t, a table the plan's root operator
// produced, that holds the query result: the column Expose exposes, else
// t's last.
func (p *Plan) ResultCol(t *Table) string {
	if p.Root.InCol == "" && len(t.Cols) > 0 {
		return t.Cols[len(t.Cols)-1]
	}
	return p.Root.InCol
}

// SourceDocs returns the documents the sub-plan rooted at o reads, sorted.
// This is the operator's invalidation footprint: a cached base table of o
// can only change when a round's update regions touch one of these
// documents.
func (o *Op) SourceDocs() []string {
	seen := map[string]bool{}
	var walk func(n *Op)
	walk = func(n *Op) {
		if n.Kind == OpSource {
			seen[n.Doc] = true
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(o)
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// SelfMaintainable reports whether the view can be maintained without
// re-deriving any base state during propagation (Sec 1.4: "the majority of
// our views becomes self-maintainable"): true when the plan contains no
// binary join and no aggregation, whose propagation equations are the only
// ones that reference the old state of their inputs.
func (p *Plan) SelfMaintainable() bool {
	for _, o := range p.ops {
		switch {
		case o.Kind == OpJoin, o.Kind == OpLOJ:
			return false
		case o.Kind == OpGroupBy && o.Agg != "":
			return false
		}
	}
	return true
}

// Analyze numbers the operators, computes output columns, the Table Order
// Schema (Table 3.1), the Context Schema (Table 4.1) and the ECC of every
// operator. It must be called once on a finished plan before execution.
func Analyze(root *Op) (*Plan, error) {
	p := &Plan{Root: root}
	id := 0
	unionSeq := 0
	var walk func(o *Op) error
	walk = func(o *Op) error {
		for _, in := range o.Inputs {
			if err := walk(in); err != nil {
				return err
			}
		}
		id++
		o.ID = id
		if err := analyzeOp(o, &unionSeq); err != nil {
			return fmt.Errorf("xat: op %d (%s): %w", o.ID, o.Kind, err)
		}
		o.fp, o.fpShare = fingerprintOp(o)
		// The output shape is fixed per operator: build the column index once
		// here and let every per-round output table share it via CloneShape.
		o.proto = NewTable(o.OutCols...)
		if o.Path != nil {
			o.navSingles = make([]xpath.Path, len(o.Path.Steps))
			for i := range o.Path.Steps {
				o.navSingles[i] = xpath.Path{Steps: o.Path.Steps[i : i+1]}
			}
		}
		p.ops = append(p.ops, o)
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return p, nil
}

// OutCols computes an operator's output columns, recomputing its inputs'
// columns recursively, so it serves plans still under construction (the
// compiler's nested FLWORs). Analyze stores the same result in Op.OutCols.
func OutCols(o *Op) []string {
	return outCols(o, func(i int) []string { return OutCols(o.Inputs[i]) })
}

// outCols is the one output-column rule; in(i) gives input i's columns.
func outCols(o *Op, in func(i int) []string) []string {
	switch o.Kind {
	case OpSource:
		return []string{o.OutCol}
	case OpNavUnnest, OpNavCollection, OpTagger, OpXMLUnion, OpXMLUnique, OpName:
		return append(slices.Clone(in(0)), o.OutCol)
	case OpSelect, OpOrderBy, OpExpose:
		return slices.Clone(in(0))
	case OpJoin, OpLOJ, OpMerge:
		return append(slices.Clone(in(0)), in(1)...)
	case OpDistinct, OpCombine:
		return []string{o.InCol}
	case OpGroupBy:
		return append(append(slices.Clone(o.GroupCols), o.CarryCols...), o.InCol)
	}
	return nil
}

func analyzeOp(o *Op, unionSeq *int) error {
	in := func(i int) *Op { return o.Inputs[i] }
	copyCtx := func(src *Op) map[string]*CtxSchema {
		m := make(map[string]*CtxSchema, len(src.Ctx)+1)
		for k, v := range src.Ctx {
			m[k] = v
		}
		return m
	}
	o.OutCols = outCols(o, func(i int) []string { return in(i).OutCols })
	switch o.Kind {
	case OpSource:
		o.OrderSchema = nil // single tuple
		o.Ctx = map[string]*CtxSchema{o.OutCol: {HasOrder: true, LngSelf: true}}

	case OpNavUnnest:
		src := in(0)
		if !hasCol(src.OutCols, o.InCol) {
			return fmt.Errorf("missing input column %s", o.InCol)
		}
		// Table 3.1 category IV: OS' = OS + col' (dropping col if it was
		// last).
		os := append([]string(nil), src.OrderSchema...)
		if n := len(os); n > 0 && os[n-1] == o.InCol {
			os = os[:n-1]
		}
		o.OrderSchema = append(os, o.OutCol)
		// Table 4.1 category III.
		o.Ctx = copyCtx(src)
		inCtx := src.Ctx[o.InCol]
		cs := &CtxSchema{LngSelf: true}
		if inCtx.HasOrder && len(inCtx.OrderCols) == 0 || !inCtx.HasOrder {
			cs.HasOrder = true // ()[]
		} else {
			cs.HasOrder = true
			cs.OrderCols = append(append([]string(nil), inCtx.OrderCols...), o.OutCol)
		}
		o.Ctx[o.OutCol] = cs

	case OpNavCollection:
		src := in(0)
		if !hasCol(src.OutCols, o.InCol) {
			return fmt.Errorf("missing input column %s", o.InCol)
		}
		o.OrderSchema = append([]string(nil), src.OrderSchema...) // category I
		o.Ctx = copyCtx(src)
		o.Ctx[o.OutCol] = derivedCtx(src.Ctx[o.InCol], o.InCol)

	case OpXMLUnique:
		src := in(0)
		o.OrderSchema = append([]string(nil), src.OrderSchema...)
		o.Ctx = copyCtx(src)
		o.Ctx[o.OutCol] = derivedCtx(src.Ctx[o.InCol], o.InCol)

	case OpName:
		src := in(0)
		o.OrderSchema = append([]string(nil), src.OrderSchema...)
		o.Ctx = copyCtx(src)
		o.Ctx[o.OutCol] = derivedCtx(src.Ctx[o.InCol], o.InCol)

	case OpSelect:
		src := in(0)
		o.OrderSchema = append([]string(nil), src.OrderSchema...)
		o.Ctx = copyCtx(src)

	case OpJoin, OpLOJ:
		l, r := in(0), in(1)
		// Table 3.1 category III: OS = OS(T1) + OS(T2).
		o.OrderSchema = append(append([]string(nil), l.OrderSchema...), r.OrderSchema...)
		// Table 4.1 category IX: left columns get right's table OS appended
		// to their order context; right columns get left's table OS
		// prepended.
		o.Ctx = make(map[string]*CtxSchema, len(l.Ctx)+len(r.Ctx))
		for _, c := range l.OutCols {
			o.Ctx[c] = joinCtx(l.Ctx[c], nil, r.OrderSchema)
		}
		for _, c := range r.OutCols {
			o.Ctx[c] = joinCtx(r.Ctx[c], l.OrderSchema, nil)
		}

	case OpDistinct:
		src := in(0)
		if !hasCol(src.OutCols, o.InCol) {
			return fmt.Errorf("missing distinct column %s", o.InCol)
		}
		o.OrderSchema = nil                                     // category II: order destroyed
		o.Ctx = map[string]*CtxSchema{o.InCol: {LngSelf: true}} // [col], no order

	case OpGroupBy:
		src := in(0)
		if !hasCol(src.OutCols, o.InCol) {
			return fmt.Errorf("missing grouped column %s", o.InCol)
		}
		if o.GroupByID {
			o.OrderSchema = append([]string(nil), o.GroupCols...)
		} else {
			o.OrderSchema = nil
		}
		// Table 4.1 category VI: the grouped column gets the grouping
		// columns' lineage.
		o.Ctx = make(map[string]*CtxSchema, len(o.OutCols))
		{
			cs := &CtxSchema{LngCols: append([]string(nil), o.GroupCols...),
				UnionTags: make([]string, len(o.GroupCols))}
			if o.GroupByID {
				cs.HasOrder = true
				for _, g := range o.GroupCols {
					cs.OrderCols = append(cs.OrderCols, orderColsOf(src.Ctx[g], g)...)
				}
			}
			o.Ctx[o.InCol] = cs
		}
		// The grouping columns identify themselves; carried columns are
		// functionally dependent on them and keep their prior context's
		// lineage shape.
		for _, g := range o.GroupCols {
			o.Ctx[g] = &CtxSchema{LngSelf: true, HasOrder: o.GroupByID}
		}
		for _, c := range o.CarryCols {
			prev := src.Ctx[c]
			if prev == nil {
				return fmt.Errorf("missing carried column %s", c)
			}
			o.Ctx[c] = &CtxSchema{HasOrder: o.GroupByID, LngSelf: prev.LngSelf, All: prev.All,
				LngCols: prev.LngCols, UnionTags: prev.UnionTags}
		}

	case OpOrderBy:
		src := in(0)
		// Table 3.1 category V: a synthetic order column; we reuse the key
		// columns directly since their values carry the order.
		o.OrderSchema = append([]string(nil), o.OrderCols...)
		o.Ctx = make(map[string]*CtxSchema, len(src.Ctx))
		for _, c := range src.OutCols {
			prev := src.Ctx[c]
			cs := &CtxSchema{HasOrder: true, OrderCols: append([]string(nil), o.OrderCols...),
				LngSelf: prev.LngSelf, LngCols: prev.LngCols, UnionTags: prev.UnionTags, All: prev.All}
			o.Ctx[c] = cs
		}
		// The order columns themselves keep self lineage with explicit order.
		for _, c := range o.OrderCols {
			prev := src.Ctx[c]
			o.Ctx[c] = &CtxSchema{HasOrder: true, OrderCols: append([]string(nil), o.OrderCols...),
				LngSelf: prev.LngSelf, LngCols: prev.LngCols, UnionTags: prev.UnionTags, All: prev.All}
		}

	case OpCombine:
		o.OrderSchema = nil // single output tuple
		o.Ctx = map[string]*CtxSchema{o.InCol: {All: true}}

	case OpTagger:
		src := in(0)
		o.OrderSchema = append([]string(nil), src.OrderSchema...) // category I
		o.Ctx = copyCtx(src)
		// Table 4.1 category V: order follows the pattern input column.
		pin := patternInputCol(o.Pattern)
		cs := &CtxSchema{LngSelf: true}
		if pin == "" {
			cs.HasOrder = true
		} else {
			pctx := src.Ctx[pin]
			if pctx == nil {
				return fmt.Errorf("tagger pattern references unknown column %s", pin)
			}
			switch {
			case pctx.HasOrder && len(pctx.OrderCols) == 0:
				cs.HasOrder = true
			case !pctx.HasOrder:
				// null order
			default:
				cs.HasOrder = true
				cs.OrderCols = append([]string(nil), pctx.OrderCols...)
			}
		}
		o.Ctx[o.OutCol] = cs

	case OpXMLUnion:
		src := in(0)
		if len(o.UnionCols) != 2 {
			return fmt.Errorf("XMLUnion needs exactly 2 input columns")
		}
		o.OrderSchema = append([]string(nil), src.OrderSchema...)
		o.Ctx = copyCtx(src)
		c1, c2 := src.Ctx[o.UnionCols[0]], src.Ctx[o.UnionCols[1]]
		if c1 == nil || c2 == nil {
			return fmt.Errorf("XMLUnion over unknown columns %v", o.UnionCols)
		}
		tag1 := "u" + itoa(*unionSeq)
		tag2 := "u" + itoa(*unionSeq+1)
		*unionSeq += 2
		cs := &CtxSchema{
			LngCols:   []string{o.UnionCols[0], o.UnionCols[1]},
			UnionTags: []string{tag1, tag2},
		}
		if bothEmptyOrder(c1) && bothEmptyOrder(c2) {
			cs.HasOrder = true
		} else {
			cs.HasOrder = true
			cs.OrderCols = append(append([]string(nil), c1.OrderCols...), c2.OrderCols...)
		}
		o.Ctx[o.OutCol] = cs

	case OpMerge:
		l, r := in(0), in(1)
		o.OrderSchema = nil
		o.Ctx = make(map[string]*CtxSchema, len(l.Ctx)+len(r.Ctx))
		for k, v := range l.Ctx {
			o.Ctx[k] = v
		}
		for k, v := range r.Ctx {
			o.Ctx[k] = v
		}

	case OpExpose:
		src := in(0)
		o.OrderSchema = append([]string(nil), src.OrderSchema...)
		o.Ctx = copyCtx(src)

	case OpUnit:
		o.OrderSchema = nil
		o.Ctx = map[string]*CtxSchema{}

	default:
		return fmt.Errorf("unknown operator kind %d", o.Kind)
	}
	// Propagate whether the Order Schema carries order-by values.
	switch o.Kind {
	case OpOrderBy:
		o.osVal = true
	case OpJoin, OpLOJ:
		o.osVal = o.Inputs[0].osVal || o.Inputs[1].osVal
	case OpSource, OpDistinct, OpCombine, OpMerge:
		o.osVal = false
	case OpGroupBy:
		o.osVal = o.GroupByID && o.Inputs[0].osVal
	default:
		if len(o.Inputs) > 0 {
			o.osVal = o.Inputs[0].osVal
		}
	}
	// ECC (Def 4.2.3): columns whose lineage references only themselves.
	o.ECC = nil
	for _, c := range o.OutCols {
		if cs := o.Ctx[c]; cs != nil && cs.LngSelf {
			o.ECC = append(o.ECC, c)
		}
	}
	return nil
}

// derivedCtx implements Table 4.1 category II: the new column's lineage is
// the input column's lineage; order follows the input column's order.
func derivedCtx(inCtx *CtxSchema, inCol string) *CtxSchema {
	cs := &CtxSchema{}
	if inCtx.LngSelf {
		cs.LngCols = []string{inCol}
		cs.UnionTags = []string{""}
	} else {
		cs.All = inCtx.All
		cs.LngCols = append([]string(nil), inCtx.LngCols...)
		cs.UnionTags = append([]string(nil), inCtx.UnionTags...)
	}
	switch {
	case inCtx.HasOrder && len(inCtx.OrderCols) == 0:
		cs.HasOrder = true // ()[col.lng]
	case !inCtx.HasOrder:
		// null order
	default:
		cs.HasOrder = true
		cs.OrderCols = append([]string(nil), inCtx.OrderCols...)
	}
	return cs
}

// orderColsOf resolves the effective order columns of a column: its
// explicit order columns, or the column itself when order equals lineage.
func orderColsOf(cs *CtxSchema, col string) []string {
	if cs == nil || !cs.HasOrder {
		return nil
	}
	if len(cs.OrderCols) == 0 {
		return []string{col}
	}
	return cs.OrderCols
}

// joinCtx appends/prepends the other side's table order schema to a
// column's order context (Table 4.1 category IX).
func joinCtx(cs *CtxSchema, prefix, suffix []string) *CtxSchema {
	out := &CtxSchema{
		LngSelf: cs.LngSelf, All: cs.All,
		LngCols:   append([]string(nil), cs.LngCols...),
		UnionTags: append([]string(nil), cs.UnionTags...),
	}
	if !cs.HasOrder && len(prefix) == 0 && len(suffix) == 0 {
		return out
	}
	out.HasOrder = true
	ord := append([]string(nil), prefix...)
	ord = append(ord, cs.OrderCols...)
	ord = append(ord, suffix...)
	if len(ord) == 0 {
		// still () — order from lineage
		return out
	}
	out.OrderCols = ord
	return out
}

func bothEmptyOrder(c *CtxSchema) bool {
	return c.HasOrder && len(c.OrderCols) == 0
}

func patternInputCol(p *TagPattern) string {
	for _, part := range p.Content {
		if part.IsCol {
			return part.Col
		}
	}
	for _, a := range p.Attrs {
		for _, part := range a.Parts {
			if part.IsCol {
				return part.Col
			}
		}
	}
	return ""
}

func hasCol(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

func (op CmpOperand) describe() string {
	if op.IsLit {
		return `"` + op.Lit + `"`
	}
	return op.Col
}

func condString(conds []Cmp) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.L.describe() + c.Op + c.R.describe()
	}
	return strings.Join(parts, " ∧ ")
}

// Describe renders the operator's defining parameter for provenance output
// ("σ price>10", "bib/book", "<item>"), in roughly the dissertation's
// notation. The operator kind is not repeated; callers prefix it.
func (o *Op) Describe() string {
	switch o.Kind {
	case OpSource:
		return `doc("` + o.Doc + `")`
	case OpNavUnnest, OpNavCollection:
		if o.Path != nil {
			return o.Path.String()
		}
	case OpSelect:
		return "σ " + condString(o.Conds)
	case OpJoin, OpLOJ:
		return "⋈ " + condString(o.Conds)
	case OpDistinct, OpCombine, OpExpose:
		return o.InCol
	case OpGroupBy:
		s := "by " + strings.Join(o.GroupCols, ",")
		if o.Agg != "" {
			s += " " + o.Agg + "(" + o.InCol + ")"
		}
		return s
	case OpOrderBy:
		return strings.Join(o.OrderCols, ",")
	case OpTagger:
		if o.Pattern != nil {
			return "<" + o.Pattern.Name + ">"
		}
	case OpXMLUnion:
		return strings.Join(o.UnionCols, "∪")
	case OpName:
		return o.InCol + "→" + o.OutCol
	}
	return ""
}

// Dump renders the plan tree for debugging and golden tests.
func (p *Plan) Dump() string {
	var b strings.Builder
	var walk func(o *Op, depth int)
	walk = func(o *Op, depth int) {
		for _, in := range o.Inputs {
			walk(in, depth+1)
		}
		fmt.Fprintf(&b, "%s#%d %s", strings.Repeat("  ", depth), o.ID, o.Kind)
		switch o.Kind {
		case OpSource:
			fmt.Fprintf(&b, " %q -> %s", o.Doc, o.OutCol)
		case OpNavUnnest, OpNavCollection:
			fmt.Fprintf(&b, " %s,%s -> %s", o.InCol, o.Path, o.OutCol)
		case OpSelect, OpJoin, OpLOJ:
			fmt.Fprintf(&b, " %v", o.Conds)
		case OpDistinct, OpCombine:
			fmt.Fprintf(&b, " %s", o.InCol)
		case OpGroupBy:
			fmt.Fprintf(&b, " by %v over %s agg=%q id=%v", o.GroupCols, o.InCol, o.Agg, o.GroupByID)
		case OpOrderBy:
			fmt.Fprintf(&b, " %v", o.OrderCols)
		case OpTagger:
			fmt.Fprintf(&b, " <%s> -> %s", o.Pattern.Name, o.OutCol)
		case OpXMLUnion:
			fmt.Fprintf(&b, " %v -> %s", o.UnionCols, o.OutCol)
		case OpName:
			fmt.Fprintf(&b, " %s -> %s", o.InCol, o.OutCol)
		case OpExpose:
			fmt.Fprintf(&b, " %s", o.InCol)
		}
		fmt.Fprintf(&b, "  OS=%v\n", o.OrderSchema)
	}
	walk(p.Root, 0)
	return b.String()
}

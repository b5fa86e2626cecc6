package bench

import (
	"fmt"
	"time"

	"xqview/internal/compile"
	"xqview/internal/obs"
	"xqview/internal/xat"
	"xqview/internal/xmark"
	"xqview/internal/xmldoc"
)

// The four order-experiment queries of Fig 3.6, over the XMark-style
// site.xml document (Fig 3.5).

// XMarkQ1 exposes whole profile fragments: pure document order.
const XMarkQ1 = `<result>{
	for $p in doc("site.xml")/site/people/person/profile
	return $p
}</result>`

// XMarkQ2 returns distinct cities sorted: order imposed by order by.
const XMarkQ2 = `<result>{
	for $c in distinct-values(doc("site.xml")/site/people/person/address/city)
	order by $c
	return $c
}</result>`

// XMarkQ3 joins persons with closed auctions: order imposed by the nesting
// of for-clause variable bindings.
const XMarkQ3 = `<result>{
	for $p in doc("site.xml")/site/people/person,
	    $c in doc("site.xml")/site/closed_auctions/closed_auction
	where $p/@id = $c/seller/@person
	return $c/date
}</result>`

// XMarkQ4 restructures heavily: order imposed by result construction and
// return clauses.
const XMarkQ4 = `<result>
	<customers>{
		for $p in doc("site.xml")/site/people/person
		return <customer><location>{$p/address/city/text()}</location>{$p/name}</customer>
	}</customers>
	<open_bids>{
		for $oa in doc("site.xml")/site/open_auctions/open_auction
		return <bid>{$oa/reserve}{$oa/initial}</bid>
	}</open_bids>
</result>`

var orderSizes = []int{250, 500, 1000, 2000}

// profile is one view materialized with the one-shot engine's spans on: the
// compile time, measured around compile.Compile, and the self time of every
// operator kind (an operator span's name up to '#') and of Materialize.
type profile struct {
	compile time.Duration
	self    map[string]time.Duration
}

// exec is the plan's execution time: its operators' self times.
func (p *profile) exec() time.Duration {
	var d time.Duration
	for kind, t := range p.self {
		if kind != "Materialize" {
			d += t
		}
	}
	return d
}

// sum adds up the self times of the given kinds.
func (p *profile) sum(kinds ...string) time.Duration {
	var d time.Duration
	for _, k := range kinds {
		d += p.self[k]
	}
	return d
}

// profileView compiles the query and materializes it over the store under a
// tracer, folding the spans Execute and MaterializeResult open.
func profileView(store *xmldoc.Store, query string) (*profile, error) {
	t0 := time.Now()
	plan, err := compile.Compile(query)
	if err != nil {
		return nil, err
	}
	p := &profile{compile: time.Since(t0)}
	tr := obs.NewTracerLimit(0)
	env := xat.NewEnv(store)
	env.Span = tr.StartSpan("view")
	tbl, err := xat.Execute(plan, env)
	if err != nil {
		return nil, err
	}
	xat.MaterializeResult(env, tbl, plan.ResultCol(tbl))
	env.Span.End()
	p.self = selfTimes(tr.Events())
	delete(p.self, "view")
	return p, nil
}

// orderFigure runs one Fig 3.7–3.10 experiment: the cost of order handling
// relative to execution across document sizes, plus its breakdown.
func orderFigure(id, title, query string, scale float64) (*Figure, error) {
	f := &Figure{
		ID:    id,
		Title: title,
		Note: "order cost = compile (order/context schemas) + self time of the overriding-order " +
			"operators (Combine, GroupBy, XMLUnion); the final sort runs inside materialize " +
			"(dereference and sort), which is not counted",
		Columns: []string{"persons", "exec_ms", "order_ms", "order/exec",
			"compile_ms", "ovrd_ops_ms", "materialize_ms"},
	}
	for _, n := range orderSizes {
		n = scaled(n, scale)
		store, err := xmark.LoadSite(xmark.DefaultSite(n))
		if err != nil {
			return nil, err
		}
		p, err := profileView(store, query)
		if err != nil {
			return nil, err
		}
		ovrd := p.sum("Combine", "GroupBy", "XMLUnion")
		orderCost := p.compile + ovrd
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(p.exec()), ms(orderCost), pct(orderCost, p.exec()),
			ms(p.compile), ms(ovrd), ms(p.sum("Materialize")),
		})
	}
	return f, nil
}

// Fig3_7 reproduces Fig 3.7: order cost of Query 1 (document order only).
func Fig3_7(scale float64) (*Figure, error) {
	return orderFigure("Fig 3.7", "order cost, Query 1 (document order)", XMarkQ1, scale)
}

// Fig3_8 reproduces Fig 3.8: order cost of Query 2 (order by clause).
func Fig3_8(scale float64) (*Figure, error) {
	return orderFigure("Fig 3.8", "order cost, Query 2 (order by)", XMarkQ2, scale)
}

// Fig3_9 reproduces Fig 3.9: order cost of Query 3 (for-clause nesting).
func Fig3_9(scale float64) (*Figure, error) {
	return orderFigure("Fig 3.9", "order cost, Query 3 (variable-binding order)", XMarkQ3, scale)
}

// Fig3_10 reproduces Fig 3.10: order cost of Query 4 (result construction).
func Fig3_10(scale float64) (*Figure, error) {
	return orderFigure("Fig 3.10", "order cost, Query 4 (construction order)", XMarkQ4, scale)
}

// The two semantic-identifier experiment queries of Fig 4.8.

// IdentQ1 constructs one node per person (flat construction).
const IdentQ1 = `<result>{
	for $p in doc("site.xml")/site/people/person
	return <person-name>{$p/name}</person-name>
}</result>`

// IdentQ2 groups persons by city (grouped construction: identifiers carry
// value lineage).
const IdentQ2 = `<result>{
	for $c in distinct-values(doc("site.xml")/site/people/person/address/city)
	order by $c
	return <city-group name="{$c}">{
		for $p in doc("site.xml")/site/people/person
		where $c = $p/address/city
		return <member>{$p/name}</member>
	}</city-group>
}</result>`

// identFigure runs one Fig 4.9/4.10 experiment: the overhead of generating
// semantic identifiers (the Tagger's self time) relative to execution.
func identFigure(id, title, query string, scale float64) (*Figure, error) {
	f := &Figure{
		ID:      id,
		Title:   title,
		Note:    "idgen = Tagger self time; the context schema is computed once per plan, in compile",
		Columns: []string{"persons", "exec_ms", "idgen_ms", "idgen/exec", "compile_ms"},
	}
	for _, n := range orderSizes {
		n = scaled(n, scale)
		store, err := xmark.LoadSite(xmark.DefaultSite(n))
		if err != nil {
			return nil, err
		}
		p, err := profileView(store, query)
		if err != nil {
			return nil, err
		}
		idgen := p.sum("Tagger")
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(p.exec()), ms(idgen), pct(idgen, p.exec()), ms(p.compile),
		})
	}
	return f, nil
}

// Fig4_9 reproduces Fig 4.9: semantic-id generation overhead, Query 1.
func Fig4_9(scale float64) (*Figure, error) {
	return identFigure("Fig 4.9", "semantic identifier overhead, Query 1 (flat construction)", IdentQ1, scale)
}

// Fig4_10 reproduces Fig 4.10: semantic-id generation overhead, Query 2.
func Fig4_10(scale float64) (*Figure, error) {
	return identFigure("Fig 4.10", "semantic identifier overhead, Query 2 (grouped construction)", IdentQ2, scale)
}

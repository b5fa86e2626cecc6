package bench

import (
	"fmt"

	"xqview/internal/xmark"
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

// orderFigure runs one Fig 3.7–3.10 experiment: the cost of order handling
// relative to execution across document sizes, plus the breakdown of the
// order cost at the largest size.
func orderFigure(id, title, query string, scale float64) (*Figure, error) {
	f := &Figure{
		ID:    id,
		Title: title,
		Note:  "order cost = order/context schema + overriding-order keys + final sort",
		Columns: []string{"persons", "exec_ms", "order_ms", "order/exec",
			"schema_ms", "ovrd_keys_ms", "final_sort_ms"},
	}
	for _, n := range orderSizes {
		n = scaled(n, scale)
		store, err := xmark.LoadSite(xmark.DefaultSite(n))
		if err != nil {
			return nil, err
		}
		v, _, err := timeView(store, query)
		if err != nil {
			return nil, err
		}
		st := v.ExecStats
		orderCost := st.OrderSchema + st.OverridingOrd + st.FinalSort
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(st.Exec), ms(orderCost), pct(orderCost, st.Exec),
			ms(st.OrderSchema), ms(st.OverridingOrd), ms(st.FinalSort),
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
// semantic identifiers relative to execution.
func identFigure(id, title, query string, scale float64) (*Figure, error) {
	f := &Figure{
		ID:      id,
		Title:   title,
		Note:    "context schema is computed once per plan during analysis",
		Columns: []string{"persons", "exec_ms", "idgen_ms", "idgen/exec", "ctx_schema_ms"},
	}
	for _, n := range orderSizes {
		n = scaled(n, scale)
		store, err := xmark.LoadSite(xmark.DefaultSite(n))
		if err != nil {
			return nil, err
		}
		v, _, err := timeView(store, query)
		if err != nil {
			return nil, err
		}
		st := v.ExecStats
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(st.Exec), ms(st.IdentGen), pct(st.IdentGen, st.Exec), ms(st.OrderSchema),
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

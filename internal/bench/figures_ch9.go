package bench

import (
	"fmt"
	"time"

	"xqview/internal/compile"
	"xqview/internal/core"
	"xqview/internal/deepunion"
	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmark"
	"xqview/internal/xmldoc"
)

// BibQ1 is the Ch 9 "Query 1": flat construction over one source.
const BibQ1 = `<result>{
	for $b in doc("bib.xml")/bib/book
	return <item>{$b/title}</item>
}</result>`

// BibQ2 is the Ch 9 "Query 2": the running-example view (grouping + join +
// ordering, Fig 1.2a) over the generated bib/prices pair.
const BibQ2 = `<result>{
	for $y in distinct-values(doc("bib.xml")/bib/book/@year)
	order by $y
	return <yGroup Y="{$y}"><books>{
		for $b in doc("bib.xml")/bib/book,
		    $e in doc("prices.xml")/prices/entry
		where $y = $b/@year and $b/title = $e/b-title
		return <entry>{$b/title} {$e/price}</entry>
	}</books></yGroup>
}</result>`

var ch9Sizes = []int{200, 400, 800, 1600}

// heteroBatch builds the fixed heterogeneous batch used by the size sweeps:
// one matching book+entry insert, one book delete, one price modify.
func heteroBatch(s *xmldoc.Store, tag string) []*update.Primitive {
	bib, _ := s.RootElem("bib.xml")
	prices, _ := s.RootElem("prices.xml")
	books := xmldoc.ChildElems(s, bib, "book")
	entries := xmldoc.ChildElems(s, prices, "entry")
	title := "Inserted-" + tag
	prims := []*update.Primitive{
		{Kind: update.Insert, Doc: "bib.xml", Parent: bib,
			Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1991"),
				xmldoc.Elem("title", xmldoc.TextF(title)))},
		{Kind: update.Insert, Doc: "prices.xml", Parent: prices,
			Frag: xmldoc.Elem("entry",
				xmldoc.Elem("price", xmldoc.TextF("42.00")),
				xmldoc.Elem("b-title", xmldoc.TextF(title)))},
	}
	if len(books) > 0 {
		prims = append(prims, &update.Primitive{Kind: update.Delete, Doc: "bib.xml", Key: books[0]})
	}
	if len(entries) > 1 {
		pr := xmldoc.ChildElems(s, entries[1], "price")
		if len(pr) == 1 {
			if texts := xmldoc.TextChildren(s, pr[0]); len(texts) == 1 {
				prims = append(prims, &update.Primitive{Kind: update.Replace,
					Doc: "prices.xml", Key: texts[0], NewValue: "99.99"})
			}
		}
	}
	return prims
}

// insertBatch builds k matching book+entry inserts.
func insertBatch(s *xmldoc.Store, k int) []*update.Primitive {
	bib, _ := s.RootElem("bib.xml")
	prices, _ := s.RootElem("prices.xml")
	var prims []*update.Primitive
	for i := 0; i < k; i++ {
		title := fmt.Sprintf("Batch-%d", i)
		prims = append(prims,
			&update.Primitive{Kind: update.Insert, Doc: "bib.xml", Parent: bib,
				Frag: xmldoc.Elem("book", xmldoc.AttrF("year", fmt.Sprintf("%d", 1990+i%8)),
					xmldoc.Elem("title", xmldoc.TextF(title)))},
			&update.Primitive{Kind: update.Insert, Doc: "prices.xml", Parent: prices,
				Frag: xmldoc.Elem("entry",
					xmldoc.Elem("price", xmldoc.TextF("10.00")),
					xmldoc.Elem("b-title", xmldoc.TextF(title)))})
	}
	return prims
}

// deleteBatch deletes the first k books.
func deleteBatch(s *xmldoc.Store, k int) []*update.Primitive {
	bib, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, bib, "book")
	if k > len(books) {
		k = len(books)
	}
	var prims []*update.Primitive
	for i := 0; i < k; i++ {
		prims = append(prims, &update.Primitive{Kind: update.Delete, Doc: "bib.xml", Key: books[i]})
	}
	return prims
}

// Fig9_1 reproduces Fig 9.1: the cost of enabling the view maintenance
// feature — plain query evaluation versus materializing a maintainable
// extent (identifiers, counts, SAPT, view tree).
func Fig9_1(scale float64) (*Figure, error) {
	f := &Figure{
		ID:      "Fig 9.1",
		Title:   "cost of enabling view maintenance",
		Note:    "plain = algebra execution only; maintainable = execution + identifiers/extent/SAPT",
		Columns: []string{"books", "plain_ms", "maintainable_ms", "overhead"},
	}
	for _, n := range ch9Sizes {
		n = scaled(n, scale)
		store, err := xmark.LoadBib(xmark.DefaultBib(n))
		if err != nil {
			return nil, err
		}
		plan, err := compile.Compile(BibQ2)
		if err != nil {
			return nil, err
		}
		plain, err := bestOf(3, func() error {
			env := xat.NewEnv(store)
			_, err := xat.Execute(plan, env)
			return err
		})
		if err != nil {
			return nil, err
		}
		full, err := bestOf(3, func() error {
			_, err := core.NewView(store, BibQ2)
			return err
		})
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", n), ms(plain), ms(full), pct(full-plain, plain),
		})
	}
	return f, nil
}

// bestOf runs f reps+1 times (one warm-up) and returns the fastest run.
func bestOf(reps int, f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// maintRow measures one (query, store, batch) cell: incremental maintenance
// with its phase breakdown against full recomputation.
func maintRow(query string, mk func() (*xmldoc.Store, error), batch func(*xmldoc.Store) []*update.Primitive) (incr *core.MaintStats, recompute time.Duration, err error) {
	// Recompute baseline on its own store instance.
	s1, err := mk()
	if err != nil {
		return nil, 0, err
	}
	prims1 := batch(s1)
	if recompute, err = timeRecompute(s1, query, clonePrims(prims1)); err != nil {
		return nil, 0, err
	}
	// Incremental run on a fresh store.
	s2, err := mk()
	if err != nil {
		return nil, 0, err
	}
	v, err := core.NewView(s2, query)
	if err != nil {
		return nil, 0, err
	}
	incr, err = v.ApplyUpdates(batch(s2))
	return incr, recompute, err
}

// Fig9_2 reproduces Fig 9.2: varying source document size for Query 1 and
// Query 2 under a fixed heterogeneous batch, with the maintenance cost
// breakdown (validate / propagate / apply).
func Fig9_2(scale float64) (*Figure, error) {
	f := &Figure{
		ID:      "Fig 9.2",
		Title:   "varying source document size",
		Note:    "fixed heterogeneous batch: 1 insert pair, 1 delete, 1 modify",
		Columns: []string{"query", "books", "incr_ms", "recompute_ms", "speedup", "validate_ms", "propagate_ms", "apply_ms"},
	}
	for _, q := range []struct{ name, query string }{{"Q1", BibQ1}, {"Q2", BibQ2}} {
		for _, n := range ch9Sizes {
			n = scaled(n, scale)
			mk := func() (*xmldoc.Store, error) { return xmark.LoadBib(xmark.DefaultBib(n)) }
			incr, rec, err := maintRow(q.query, mk, func(s *xmldoc.Store) []*update.Primitive {
				return heteroBatch(s, "x")
			})
			if err != nil {
				return nil, err
			}
			f.Rows = append(f.Rows, []string{
				q.name, fmt.Sprintf("%d", n),
				ms(incr.Total), ms(rec), speedup(rec, incr.Total),
				ms(incr.Validate), ms(incr.Propagate), ms(incr.Apply),
			})
		}
	}
	return f, nil
}

func speedup(base, x time.Duration) string {
	if x == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(x))
}

// Fig9_3 reproduces Fig 9.3: varying view (join) selectivity.
func Fig9_3(scale float64) (*Figure, error) {
	f := &Figure{
		ID:      "Fig 9.3",
		Title:   "varying view selectivity",
		Note:    "selectivity = fraction of books with a matching price entry",
		Columns: []string{"selectivity", "incr_ms", "recompute_ms", "speedup"},
	}
	n := scaled(800, scale)
	for _, sel := range []float64{0.125, 0.25, 0.5, 1.0} {
		cfg := xmark.DefaultBib(n)
		cfg.Selectivity = sel
		mk := func() (*xmldoc.Store, error) { return xmark.LoadBib(cfg) }
		incr, rec, err := maintRow(BibQ2, mk, func(s *xmldoc.Store) []*update.Primitive {
			return heteroBatch(s, "x")
		})
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%.3f", sel), ms(incr.Total), ms(rec), speedup(rec, incr.Total),
		})
	}
	return f, nil
}

// Fig9_4 reproduces Fig 9.4: varying insert update size, with the
// maintenance cost breakdown.
func Fig9_4(scale float64) (*Figure, error) {
	f := &Figure{
		ID:      "Fig 9.4",
		Title:   "varying size of insert update (Query 2)",
		Note:    "inserts are matching book+entry pairs",
		Columns: []string{"inserted_pairs", "incr_ms", "recompute_ms", "speedup", "validate_ms", "propagate_ms", "apply_ms"},
	}
	n := scaled(800, scale)
	for _, k := range []int{1, 5, 25, 100} {
		k := k
		mk := func() (*xmldoc.Store, error) { return xmark.LoadBib(xmark.DefaultBib(n)) }
		incr, rec, err := maintRow(BibQ2, mk, func(s *xmldoc.Store) []*update.Primitive {
			return insertBatch(s, k)
		})
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", k),
			ms(incr.Total), ms(rec), speedup(rec, incr.Total),
			ms(incr.Validate), ms(incr.Propagate), ms(incr.Apply),
		})
	}
	return f, nil
}

// Fig9_5 reproduces Fig 9.5: varying delete update size for Query 1 and
// Query 2.
func Fig9_5(scale float64) (*Figure, error) {
	f := &Figure{
		ID:      "Fig 9.5",
		Title:   "varying size of delete update",
		Columns: []string{"query", "deleted_books", "incr_ms", "recompute_ms", "speedup"},
	}
	n := scaled(800, scale)
	for _, q := range []struct{ name, query string }{{"Q1", BibQ1}, {"Q2", BibQ2}} {
		for _, k := range []int{1, 5, 25, 100} {
			k := k
			mk := func() (*xmldoc.Store, error) { return xmark.LoadBib(xmark.DefaultBib(n)) }
			incr, rec, err := maintRow(q.query, mk, func(s *xmldoc.Store) []*update.Primitive {
				return deleteBatch(s, k)
			})
			if err != nil {
				return nil, err
			}
			f.Rows = append(f.Rows, []string{
				q.name, fmt.Sprintf("%d", k),
				ms(incr.Total), ms(rec), speedup(rec, incr.Total),
			})
		}
	}
	return f, nil
}

// Fig9_6 reproduces Fig 9.6: deleting an entire exposed fragment. The deep
// union disconnects the fragment at its root in one step; the baseline
// removes its nodes one by one (the [LD00] strategy the dissertation
// contrasts against in Sec 8.3.2).
func Fig9_6(scale float64) (*Figure, error) {
	f := &Figure{
		ID:      "Fig 9.6",
		Title:   "deleting an entire fragment from the view",
		Note:    "deep union disconnects the fragment root; naive removes node by node",
		Columns: []string{"fragment_nodes", "deep_union_ms", "node_by_node_ms", "ratio"},
	}
	for _, extra := range []int{10, 100, 1000} {
		extra = scaled(extra, scale)
		store, err := xmark.LoadSite(xmark.DefaultSite(50))
		if err != nil {
			return nil, err
		}
		// Grow one person's subtree.
		root, _ := store.RootElem("site.xml")
		people := xmldoc.ChildElems(store, root, "people")[0]
		person := xmldoc.ChildElems(store, people, "person")[0]
		grow := xmldoc.NewDraft(store)
		for i := 0; i < extra; i++ {
			if _, err := grow.InsertFragment(person, "", "",
				xmldoc.Elem("interest", xmldoc.AttrF("category", fmt.Sprintf("c%d", i)))); err != nil {
				return nil, err
			}
		}
		store.Snap = grow.Freeze()
		query := `<result>{ for $p in doc("site.xml")/site/people/person return $p }</result>`
		v, err := core.NewView(store, query)
		if err != nil {
			return nil, err
		}
		// Locate the exposed fragment in the view and prepare the naive
		// baseline on a cloned extent before the real maintenance runs.
		frag := findChildByBase(v.Extent[0], string(person))
		if frag == nil {
			return nil, fmt.Errorf("bench: exposed person fragment not found")
		}
		fragNodes := frag.NodeCount()
		naive := naiveNodeByNodeDelete(v.Extent, frag)

		del := []*update.Primitive{{Kind: update.Delete, Doc: "site.xml", Key: person}}
		msStats, err := v.ApplyUpdates(del)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", fragNodes),
			ms(msStats.Apply), ms(naive), ratio(naive, msStats.Apply),
		})
	}
	return f, nil
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func findChildByBase(root *xat.VNode, key string) *xat.VNode {
	for _, c := range root.Children {
		if c.ID.Body == key {
			return c
		}
	}
	return nil
}

// naiveNodeByNodeDelete measures deleting a fragment by issuing one deep
// union per node, leaves first — the strategy of [LD00] that the count-
// aware deep union replaces.
func naiveNodeByNodeDelete(extent []*xat.VNode, frag *xat.VNode) time.Duration {
	clone := make([]*xat.VNode, len(extent))
	for i, r := range extent {
		clone[i] = r.Clone()
	}
	t0 := time.Now()
	croot := clone[0]
	var doomed *xat.VNode
	for _, c := range croot.Children {
		if c.ID.Key() == frag.ID.Key() {
			doomed = c
		}
	}
	var removeLeaves func(n *xat.VNode) bool
	removeLeaves = func(n *xat.VNode) bool {
		if len(n.Children) == 0 {
			return true
		}
		var keep []*xat.VNode
		for _, c := range n.Children {
			if !removeLeaves(c) {
				keep = append(keep, c)
			} else {
				// One "apply" per removed node: rebuild the child index the
				// way an id-based merge would.
				idx := map[string]*xat.VNode{}
				for _, cc := range n.Children {
					idx[cc.ID.Key()] = cc
				}
				delete(idx, c.ID.Key())
			}
		}
		n.Children = keep
		return false
	}
	for doomed != nil && len(doomed.Children) > 0 {
		removeLeaves(doomed)
	}
	if doomed != nil {
		var keep []*xat.VNode
		for _, c := range croot.Children {
			if c != doomed {
				keep = append(keep, c)
			}
		}
		croot.Children = keep
	}
	_ = deepunion.Validate
	return time.Since(t0)
}

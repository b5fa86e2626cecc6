// Package core implements the VPA view-maintenance framework (Sec 1.4.1):
// materialized XQuery views over a source store, maintained through the
// Validate, Propagate and Apply phases, with a full-recomputation baseline
// for comparison and testing.
package core

import (
	"fmt"
	"strings"
	"time"

	"xqview/internal/compile"
	"xqview/internal/deepunion"
	"xqview/internal/journal"
	"xqview/internal/sapt"
	"xqview/internal/update"
	"xqview/internal/validate"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// View is a materialized XQuery view registered over a source store.
type View struct {
	Query  string
	Plan   *xat.Plan
	Store  *xmldoc.Store
	SAPT   *sapt.Tree
	Extent []*xat.VNode

	// Name identifies the view in traces, logs and maintenance errors.
	// Optional; when empty, a positional "view-<i>" label is used.
	Name string

	// The view's round state, owned for its whole lifetime: the cross-round
	// propagation state cache, the round arena propagation allocates from,
	// and the copy-on-write tracker of the apply phase. Only the worker
	// maintaining this view touches them during a round; the round's commit
	// or rollback resets the arena and the tracker in place.
	cache *xat.StateCache
	alloc *xat.Alloc
	tx    *deepunion.Txn
}

// CacheStats reports the propagation state cache's lifetime counters.
func (v *View) CacheStats() xat.CacheStats {
	return v.cache.Stats()
}

// displayName labels the view for traces and errors: its Name if set, else
// its position in the batch.
func (v *View) displayName(i int) string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("view-%d", i)
}

// MaintStats reports one maintenance run (the Ch 9 breakdown). Validate,
// Source and Total are the round's (the same for every view of it);
// Propagate and Apply are this view's own.
type MaintStats struct {
	Validate  time.Duration
	Propagate time.Duration
	Apply     time.Duration
	Source    time.Duration // refreshing the base documents
	Total     time.Duration

	Validation validate.Stats
	Union      deepunion.Stats
	DeltaRoots int

	// Skipped is 1 when the view's Propagate+Apply phases were skipped
	// because the batch's regions cannot touch it; summing over rounds
	// counts skips. A view counts as skipped even when a shared prefix it
	// subscribes to ran for other views this round — the skip describes
	// this view's own work.
	Skipped int

	// SharedPrefixes counts the shared sub-plan results seeded into this
	// view's propagation: subtrees the view did not have to re-propagate
	// itself.
	SharedPrefixes int
}

// NewView compiles the query, derives its SAPT, and materializes the
// initial extent.
func NewView(store *xmldoc.Store, query string) (*View, error) {
	plan, err := compile.Compile(query)
	if err != nil {
		return nil, err
	}
	v := &View{Query: query, Plan: plan, Store: store, SAPT: sapt.Build(plan),
		cache: xat.NewStateCache(), alloc: &xat.Alloc{}, tx: deepunion.NewTxn()}
	if err := v.Materialize(); err != nil {
		return nil, err
	}
	return v, nil
}

// Materialize (re)computes the extent from scratch. It leaves the store
// alone, so the propagation state cache, which describes the store, stays
// valid.
func (v *View) Materialize() error {
	env := xat.NewEnv(v.Store)
	tbl, err := xat.Execute(v.Plan, env)
	if err != nil {
		return err
	}
	v.Extent = xat.MaterializeResult(env, tbl, v.Plan.ResultCol(tbl))
	return nil
}

// XML serializes the current extent.
func (v *View) XML() string { return xat.ExtentXML(v.Extent) }

// ApplyUpdates runs the full VPA pipeline for a batch of primitives:
// validate (relevancy, sufficiency, rewriting, batching), refreshing the
// source documents into the round's draft, propagate (incremental
// maintenance plan execution producing delta update trees) and apply (deep
// union into the extent); the draft becomes the store at commit. The view
// is maintained alone, as a one-view set.
func (v *View) ApplyUpdates(prims []*update.Primitive) (*MaintStats, error) {
	set, err := NewViewSet(v.Store, []*View{v})
	if err != nil {
		return nil, err
	}
	all, err := MaintainAll(set, prims, 0, Options{})
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

// ViewSet is the views of one store, compiled once: everything a round
// needs that depends only on which views are registered. Build a new set
// whenever the views change; a set's views, and their order, are fixed.
type ViewSet struct {
	Store *xmldoc.Store
	Views []*View
	// merged is the union of the views' SAPTs, the tree validate classifies
	// every batch against.
	merged *sapt.Tree
	// dag groups the views' shared sub-plans; its groups' cache partitions
	// stay warm across the rounds of the set.
	dag *xat.SharedDAG
}

// NewViewSet checks that every view reads store, then compiles the set: it
// merges the views' SAPTs and groups their plans into the shared DAG.
func NewViewSet(store *xmldoc.Store, views []*View) (*ViewSet, error) {
	trees := make([]*sapt.Tree, len(views))
	plans := make([]*xat.Plan, len(views))
	for i, v := range views {
		if v.Store != store {
			return nil, fmt.Errorf("core: view %q is defined over a different store", v.displayName(i))
		}
		trees[i], plans[i] = v.SAPT, v.Plan
	}
	return &ViewSet{Store: store, Views: append([]*View(nil), views...),
		merged: sapt.Merge(trees...), dag: xat.BuildSharedDAG(plans)}, nil
}

// cacheStats totals the lifetime counters of every cache a round over the
// set touches: each view's cache and each shared group's partition. Diffed
// across the round via CacheStats.Sub it yields the round's cache activity;
// Entries sums to the current level, not a delta.
func (s *ViewSet) cacheStats() xat.CacheStats {
	var t xat.CacheStats
	add := func(c xat.CacheStats) {
		t.Hits += c.Hits
		t.Misses += c.Misses
		t.Folds += c.Folds
		t.Evictions += c.Evictions
		t.Entries += c.Entries
	}
	for _, v := range s.Views {
		add(v.CacheStats())
	}
	for _, g := range s.dag.Groups {
		add(g.Cache.Stats())
	}
	return t
}

// MaintainAll maintains the views of a set under one batch, as one round of
// phases (round.go): the batch is compacted and validated once against the
// set's merged SAPT, the source documents are refreshed once into the
// round's draft of the store, the set's shared sub-plan prefixes propagate
// once, and each view's incremental maintenance plan propagates the batch
// and refreshes its extent over a bounded worker pool (Options.Parallelism,
// default GOMAXPROCS). Commit installs the draft. Results do not depend on
// the pool size.
//
// The round is transactional: every staged outcome is installed together
// only after the whole round succeeded. On any error or panic the round is
// rolled back — view extents, source documents and cached propagation
// state are left byte-identical to the pre-round state, the journal
// records an aborted round — and the error is returned. A failed batch can
// simply be retried.
//
// eval is the time the caller spent producing prims from an update script
// (update.ParseAndEvaluate); zero when the primitives did not come from one.
// It is work done for the round but ahead of it: the round reports it as a
// ParseEvaluate span preceding its own and as RoundSample.EvalNS, and keeps
// it out of MaintStats.Total.
func MaintainAll(set *ViewSet, prims []*update.Primitive, eval time.Duration, opt Options) ([]*MaintStats, error) {
	// Provenance journaling: MaintainAll owns the round lifecycle — it
	// stamps the round ID at Begin and commits the round (success or
	// rolled-back failure) into the Default journal's retention ring. All
	// downstream recording threads through the nil-safe RoundRec/ViewRec
	// handles, so with the gate off the pipeline carries a nil pointer and
	// nothing else.
	var jrec *journal.RoundRec
	if journal.Enabled() {
		names := make([]string, len(set.Views))
		for i, v := range set.Views {
			names[i] = v.displayName(i)
		}
		jrec = journal.Default.Begin(names, len(prims))
	}
	out, err := maintainAll(set, prims, eval, opt, jrec)
	if err != nil {
		// The round transaction restored all pre-round state (including the
		// caches, whose entries still describe the restored store), so the
		// journal records the failure as aborted-and-rolled-back.
		jrec.Abort(err)
		return nil, err
	}
	jrec.Commit(nil)
	return out, err
}

// Recompute is the full-recomputation baseline of Ch 9: it applies the
// updates to a draft of the store's version, and evaluates the view from
// scratch over the frozen result, returning the resulting XML.
func Recompute(store *xmldoc.Store, query string, prims []*update.Primitive) (string, error) {
	out, err := RecomputeAll(store, []string{query}, prims)
	if err != nil {
		return "", err
	}
	return out[0], nil
}

// RecomputeAll recomputes several views from scratch under one batch, the
// multi-view counterpart of Recompute and the oracle the maintenance tests
// compare against: the updates are applied once, to a draft of the store's
// version, and each view evaluates its query over the frozen result, in
// query order. The source store is never mutated.
func RecomputeAll(store *xmldoc.Store, queries []string, prims []*update.Primitive) ([]string, error) {
	// Primitives reference keys of the original store, which the draft
	// shares. Apply shallow copies: ApplyToStore assigns insert keys on the
	// primitive, and the shared Frag trees are only ever read.
	d := xmldoc.NewDraft(store)
	for _, p := range prims {
		cp := *p
		if err := update.ApplyToStore(d, &cp); err != nil {
			return nil, fmt.Errorf("recompute: %w", err)
		}
	}
	post := &xmldoc.Store{Snap: d.Freeze()}
	out := make([]string, len(queries))
	for i, q := range queries {
		v, err := NewView(post, q)
		if err != nil {
			return nil, fmt.Errorf("recompute view-%d: %w", i, err)
		}
		out[i] = v.XML()
	}
	return out, nil
}

// CanonicalXML renders an extent deterministically for comparisons: sibling
// runs without defined order are sorted by their serialized form.
func CanonicalXML(roots []*xat.VNode) string {
	cs := make([]*xat.VNode, len(roots))
	for i, r := range roots {
		cs[i] = r.Clone()
	}
	for _, r := range cs {
		canonicalize(r)
	}
	sortCanonical(cs)
	return xat.ExtentXML(cs)
}

func canonicalize(n *xat.VNode) {
	for _, c := range n.Children {
		canonicalize(c)
	}
	sortCanonical(n.Children)
	sortCanonical(n.Attrs)
}

func sortCanonical(ns []*xat.VNode) {
	// Stable sort by order key first, serialized form second, so unordered
	// runs become deterministic without disturbing ordered ones.
	keyed := make([]string, len(ns))
	for i, c := range ns {
		keyed[i] = c.XML()
	}
	idx := make([]int, len(ns))
	for i := range idx {
		idx[i] = i
	}
	sortStableBy(idx, func(a, b int) int {
		if cmp := xat.CompareOrd(ns[a].ID.Order(), ns[b].ID.Order()); cmp != 0 {
			return cmp
		}
		return strings.Compare(keyed[a], keyed[b])
	})
	out := make([]*xat.VNode, len(ns))
	for i, j := range idx {
		out[i] = ns[j]
	}
	copy(ns, out)
}

func sortStableBy(idx []int, cmp func(a, b int) int) {
	// Insertion sort keeps it stable and dependency-free; sibling runs are
	// small.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && cmp(idx[j-1], idx[j]) > 0; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
}

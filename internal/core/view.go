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

	// cache is the cross-round propagation state cache. Lazily created;
	// only the worker maintaining this view touches it during a round.
	cache *xat.StateCache
}

// stateCache returns the view's propagation state cache, creating it on
// first use.
func (v *View) stateCache() *xat.StateCache {
	if v.cache == nil {
		v.cache = xat.NewStateCache()
	}
	return v.cache
}

// InvalidateCache drops every base table the view's propagation state cache
// holds. Call it after any out-of-band mutation of the source store (the
// cache only tracks mutations flowing through MaintainAll).
func (v *View) InvalidateCache() {
	if v.cache != nil {
		v.cache.Invalidate()
	}
}

// CacheStats reports the propagation state cache's counters (zero when the
// cache was never used).
func (v *View) CacheStats() xat.CacheStats {
	return v.cache.Stats()
}

// plansOf lists the views' plans in view order, the shape BuildSharedDAG and
// SharedDAG.Matches take.
func plansOf(views []*View) []*xat.Plan {
	plans := make([]*xat.Plan, len(views))
	for i, v := range views {
		plans[i] = v.Plan
	}
	return plans
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
	v := &View{Query: query, Plan: plan, Store: store, SAPT: sapt.Build(plan)}
	if err := v.Materialize(); err != nil {
		return nil, err
	}
	return v, nil
}

// Materialize (re)computes the extent from scratch. Any cached propagation
// state is dropped: a from-scratch run implies the prior incremental state
// is no longer trusted.
func (v *View) Materialize() error {
	v.InvalidateCache()
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

// ApplyScript parses XQuery update statements, evaluates them against the
// store and maintains the view incrementally.
func (v *View) ApplyScript(src string, opts ...Options) (*MaintStats, error) {
	t0 := time.Now()
	prims, err := update.ParseAndEvaluate(v.Store, src)
	if err != nil {
		return nil, err
	}
	return v.maintain(prims, time.Since(t0), opts)
}

// ApplyUpdates runs the full VPA pipeline for a batch of primitives:
// validate (relevancy, sufficiency, rewriting, batching), refreshing the
// source documents into the round's draft, propagate (incremental
// maintenance plan execution producing delta update trees) and apply (deep
// union into the extent); the draft becomes the store at commit.
func (v *View) ApplyUpdates(prims []*update.Primitive, opts ...Options) (*MaintStats, error) {
	return v.maintain(prims, 0, opts)
}

func (v *View) maintain(prims []*update.Primitive, eval time.Duration, opts []Options) (*MaintStats, error) {
	all, err := MaintainAll(v.Store, []*View{v}, prims, eval, opts...)
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

// MaintainAll maintains several views over the same store under one batch,
// as one round of phases (round.go): the batch is compacted and validated
// once against the union of the views' SAPTs, the source documents are
// refreshed once into the round's draft of the store, shared sub-plan
// prefixes propagate once, and each view's incremental maintenance plan
// propagates the batch and refreshes its extent over a bounded worker pool
// (Options.Parallelism, default GOMAXPROCS). Commit installs the draft.
// Results do not depend on the pool size.
//
// The round is transactional: every staged outcome is installed together
// only after the whole round succeeded. On any error or panic the round is
// rolled back — view extents, source documents and cached propagation
// state are restored byte-identical to the pre-round state, the journal
// records an aborted round — and the error is returned. A failed batch can
// simply be retried.
//
// eval is the time the caller spent producing prims from an update script
// (update.ParseAndEvaluate); zero when the primitives did not come from one.
// It is work done for the round but ahead of it: the round reports it as a
// ParseEvaluate span preceding its own and as RoundSample.EvalNS, and keeps
// it out of MaintStats.Total.
func MaintainAll(store *xmldoc.Store, views []*View, prims []*update.Primitive, eval time.Duration, opts ...Options) ([]*MaintStats, error) {
	opt := getOpts(opts)
	// Provenance journaling: MaintainAll owns the round lifecycle — it
	// stamps the round ID at Begin and commits the round (success or
	// rolled-back failure) into the Default journal's retention ring. All
	// downstream recording threads through the nil-safe RoundRec/ViewRec
	// handles, so with the gate off the pipeline carries a nil pointer and
	// nothing else.
	var jrec *journal.RoundRec
	if journal.Enabled() {
		names := make([]string, len(views))
		for i, v := range views {
			names[i] = v.displayName(i)
		}
		jrec = journal.Default.Begin(names, len(prims))
	}
	out, err := maintainAll(store, views, prims, eval, opt, jrec)
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

// Recompute is the full-recomputation baseline of Ch 9: it clones the
// store, applies the updates, and evaluates the view from scratch,
// returning the resulting XML.
func Recompute(store *xmldoc.Store, query string, prims []*update.Primitive) (string, error) {
	out, err := RecomputeAll(store, []string{query}, prims)
	if err != nil {
		return "", err
	}
	return out[0], nil
}

// RecomputeAll recomputes several views from scratch under one batch, the
// multi-view counterpart of Recompute and the oracle the maintenance tests
// compare against: the updates are applied once, to a clone of the store,
// and each view evaluates its query over the result, in query order. The
// source store is never mutated.
func RecomputeAll(store *xmldoc.Store, queries []string, prims []*update.Primitive) ([]string, error) {
	// Primitives reference keys of the original store, which the clone
	// shares. Apply shallow copies: ApplyToStore assigns insert keys on the
	// primitive, and the shared Frag trees are only ever read.
	d := xmldoc.NewDraft(store)
	for _, p := range prims {
		cp := *p
		if err := update.ApplyToStore(d, &cp); err != nil {
			return nil, fmt.Errorf("recompute: %w", err)
		}
	}
	post := store.Clone()
	post.Install(d.Delta())
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

// Package validate implements the Validate phase of the VPA framework
// (Ch 5): primitives are checked for relevancy against the view's SAPT,
// checked for sufficiency, rewritten to delete+insert of their navigation
// anchor when they change values the plan depends on, assigned stable
// FlexKeys, and batched per document.
package validate

import (
	"fmt"
	"strings"

	"xqview/internal/faultinject"
	"xqview/internal/flexkey"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/sapt"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// fpBatch guards the validate phase boundary — the earliest fault point of a
// round, before any key assignment.
var fpBatch = faultinject.Register("validate.batch")

// Batch is the validated set of updates: what source refresh applies to the
// store and what the propagate phase propagates.
type Batch struct {
	// Refresh lists every accepted primitive in application order, the
	// irrelevant ones included: relevance decides what propagates, never
	// what reaches the store. Insert primitives carry their assigned keys.
	Refresh []*update.Primitive
	// ByDoc holds, per document, the primitives propagation reads (the
	// relevant subset of Refresh), in application order. Propagation takes
	// them one region per primitive; the batch update trees of Fig 5.3 are
	// not materialized.
	ByDoc map[string][]*update.Primitive
	// Stats summarizes validation decisions.
	Stats Stats
}

// Stats counts validation outcomes.
type Stats struct {
	Total      int
	Irrelevant int
	Passed     int
	Rewritten  int
}

// Add accumulates s2 into s field by field (via obs.AddFields, like every
// Stats type in the engine), so counters added here aggregate without
// touching call sites.
func (s *Stats) Add(s2 Stats) { obs.AddFields(s, s2) }

// Prims returns the primitives propagation reads, across documents.
func (b *Batch) Prims() []*update.Primitive {
	var out []*update.Primitive
	for _, ps := range b.ByDoc {
		out = append(out, ps...)
	}
	return out
}

// verdictPath renders the primitive's affected name path for the journal.
// Only called when recording is active, so the disabled path never walks
// ancestor chains.
func verdictPath(s *xmldoc.Store, p *update.Primitive) string {
	return strings.Join(update.TargetPath(s, p), "/")
}

// ValidateRec runs the validate phase over the raw primitives, with an
// optional provenance recorder: each primitive's classification (accept /
// prune / rewrite / reject) lands in the journal round as a Verdict. A nil
// recorder records nothing.
func ValidateRec(s *xmldoc.Store, t *sapt.Tree, prims []*update.Primitive, rec *journal.RoundRec) (*Batch, error) {
	if err := fpBatch.Fire(); err != nil {
		return nil, err
	}
	b := &Batch{ByDoc: map[string][]*update.Primitive{}}
	b.Stats.Total = len(prims)

	// Group rewrite-class primitives (and any other primitive living inside
	// a rewritten anchor) by anchor so each anchor is rewritten once with
	// all its changes applied.
	type anchorGroup struct {
		doc   string
		prims []*update.Primitive
	}
	groups := map[flexkey.Key]*anchorGroup{}
	var order []flexkey.Key
	// The pass- and irrelevant-class primitives, in statement order.
	type accepted struct {
		p        *update.Primitive
		relevant bool
	}
	var direct []accepted

	for i, p := range prims {
		update.NormalizePosition(s, p)
		if err := checkSufficiency(s, p); err != nil {
			if rec.Active() {
				rec.Verdict(i, "reject", verdictPath(s, p), err.Error())
			}
			return nil, err
		}
		switch t.Classify(s, p) {
		case sapt.Irrelevant:
			direct = append(direct, accepted{p, false})
			b.Stats.Irrelevant++
			if rec.Active() {
				rec.Verdict(i, "prune", verdictPath(s, p), "")
			}
		case sapt.Pass:
			direct = append(direct, accepted{p, true})
			b.Stats.Passed++
			if rec.Active() {
				rec.Verdict(i, "accept", verdictPath(s, p), "")
			}
		case sapt.Rewrite:
			a, err := anchorFor(s, t, p)
			if err != nil {
				if rec.Active() {
					rec.Verdict(i, "reject", verdictPath(s, p), err.Error())
				}
				return nil, err
			}
			if rec.Active() {
				rec.Verdict(i, "rewrite", verdictPath(s, p), "anchor="+string(a))
			}
			g, ok := groups[a]
			if !ok {
				g = &anchorGroup{doc: p.Doc}
				groups[a] = g
				order = append(order, a)
			}
			g.prims = append(g.prims, p)
			b.Stats.Rewritten++
		}
	}
	// Merge nested anchor groups: a rewritten anchor inside another
	// rewritten anchor folds into the outer one.
	for i := 0; i < len(order); i++ {
		a := order[i]
		for j := 0; j < len(order); j++ {
			outer := order[j]
			if _, ok := groups[a]; !ok {
				break
			}
			if _, ok := groups[outer]; ok && flexkey.IsAncestorOf(outer, a) {
				groups[outer].prims = append(groups[outer].prims, groups[a].prims...)
				delete(groups, a)
				order = append(order[:i:i], order[i+1:]...)
				i--
				break
			}
		}
	}
	// Fold pass- and irrelevant-class primitives that live inside a
	// rewritten anchor into the rewrite (their effect must appear in the
	// replacement fragment, which is what refresh inserts).
	var kept []accepted
	for _, a := range direct {
		ref := a.p.Key
		if a.p.Kind == update.Insert {
			ref = a.p.Parent
		}
		folded := false
		for anchor, g := range groups {
			if flexkey.IsSelfOrAncestorOf(anchor, ref) {
				g.prims = append(g.prims, a.p)
				folded = true
				break
			}
		}
		if !folded {
			kept = append(kept, a)
		}
	}
	// Assign keys to every insert, relevant or not. Inserts at the same
	// position are keyed one after another, each after the last key
	// assigned there.
	assigned := map[flexkey.Key]flexkey.Key{} // original After -> last key assigned there
	assign := func(p *update.Primitive) {
		lo, hi := p.After, p.Before
		if last, ok := assigned[p.After]; ok {
			lo = last
		}
		if hi != "" && lo >= hi {
			hi = "" // a previous assignment consumed the gap's bound ordering
		}
		p.Key = flexkey.SiblingBetween(p.Parent, lo, hi)
		assigned[p.After] = p.Key
	}
	// Emit delete+insert pairs for each rewritten anchor. The re-insert is
	// keyed first, right after the anchor it replaces, so whatever the
	// script inserts after the anchor still lands after it.
	for _, a := range order {
		g := groups[a]
		frag, err := rewriteFragment(s, a, g.prims)
		if err != nil {
			return nil, err
		}
		_, next := s.Siblings(a)
		ins := &update.Primitive{Kind: update.Insert, Doc: g.doc, Parent: s.Parent(a), After: a, Before: next, Frag: frag}
		assign(ins)
		kept = append(kept,
			accepted{&update.Primitive{Kind: update.Delete, Doc: g.doc, Key: a}, true},
			accepted{ins, true})
	}
	// Key the remaining inserts in statement order, and batch.
	b.Refresh = make([]*update.Primitive, 0, len(kept))
	for _, a := range kept {
		p := a.p
		if p.Kind == update.Insert && p.Key == "" {
			assign(p)
		}
		b.Refresh = append(b.Refresh, p)
		if a.relevant {
			b.ByDoc[p.Doc] = append(b.ByDoc[p.Doc], p)
		}
	}
	return b, nil
}

// checkSufficiency verifies the primitive carries (or the store can supply)
// everything propagation needs (Sec 5.2.2).
func checkSufficiency(s *xmldoc.Store, p *update.Primitive) error {
	switch p.Kind {
	case update.Insert:
		if p.Frag == nil {
			return fmt.Errorf("validate: insert without a fragment")
		}
		if _, ok := s.Node(p.Parent); !ok {
			return fmt.Errorf("validate: insert under unknown parent %s", p.Parent)
		}
	case update.Delete, update.Replace:
		if _, ok := s.Node(p.Key); !ok {
			return fmt.Errorf("validate: %s of unknown node %s", p.Kind, p.Key)
		}
	}
	return nil
}

// anchorFor finds the outermost Navigate Unnest anchor containing the
// primitive's target: the fragment granularity at which a rewritten update
// can be propagated as delete+insert. It must be the outermost such anchor:
// every navigation pipeline whose target contains the changed value then
// sees the rewrite as a structural delete+insert of whole tuples, never as
// an unexpressible value patch (several pipelines may bind targets at
// different depths over the same region).
func anchorFor(s *xmldoc.Store, t *sapt.Tree, p *update.Primitive) (flexkey.Key, error) {
	k := p.Key
	if p.Kind == update.Insert {
		k = p.Parent
	}
	var anchor flexkey.Key
	for k != "" {
		n, ok := s.Node(k)
		if !ok {
			break
		}
		if n.Kind == xmldoc.Element && t.IsForTargetPath(update.PathNames(s, k), p.Doc) {
			anchor = k
		}
		k = s.Parent(k)
	}
	if anchor == "" {
		return "", fmt.Errorf("validate: no navigation anchor encloses %s in %s", p.Key, p.Doc)
	}
	return anchor, nil
}

// rewriteFragment clones the subtree at anchor a and applies the given
// primitives inside the clone, producing the replacement fragment.
func rewriteFragment(s *xmldoc.Store, a flexkey.Key, prims []*update.Primitive) (*xmldoc.Frag, error) {
	// Index primitives by their structural location.
	replaceAt := map[flexkey.Key]string{}
	deleteAt := map[flexkey.Key]bool{}
	insertsUnder := map[flexkey.Key][]*update.Primitive{}
	for _, p := range prims {
		switch p.Kind {
		case update.Replace:
			replaceAt[p.Key] = p.NewValue
		case update.Delete:
			deleteAt[p.Key] = true
		case update.Insert:
			insertsUnder[p.Parent] = append(insertsUnder[p.Parent], p)
		}
	}
	var clone func(k flexkey.Key) *xmldoc.Frag
	clone = func(k flexkey.Key) *xmldoc.Frag {
		if deleteAt[k] {
			return nil
		}
		n, ok := s.Node(k)
		if !ok {
			return nil
		}
		f := &xmldoc.Frag{Kind: n.Kind, Name: n.Name, Value: n.Value}
		if v, ok := replaceAt[k]; ok {
			f.Value = v
		}
		for _, ak := range s.Attrs(k) {
			if af := clone(ak); af != nil {
				f.Attrs = append(f.Attrs, af)
			}
		}
		children := s.Children(k)
		// Interleave pending inserts at their positions.
		pending := insertsUnder[k]
		emitInserts := func(after flexkey.Key) {
			for _, p := range pending {
				if p.After == after {
					f.Children = append(f.Children, p.Frag.Clone())
				}
			}
		}
		emitInserts("")
		for _, ck := range children {
			if cf := clone(ck); cf != nil {
				f.Children = append(f.Children, cf)
			}
			emitInserts(ck)
		}
		return f
	}
	f := clone(a)
	if f == nil {
		return nil, fmt.Errorf("validate: anchor %s deleted by its own rewrite group", a)
	}
	return f, nil
}

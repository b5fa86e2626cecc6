package journal

// Explain walks the journal backwards to answer "why is this node in the
// view": find the most recent round whose lineage mentions the key, name
// the originating update primitive and its Validate verdict, list the XAT
// operators its delta flowed through, and show the Deep-Union fusion that
// folded it into the view extent.

import (
	"fmt"
	"strings"

	"xqview/internal/flexkey"
)

// mentionsKey reports whether a recorded lineage key (an ID.Key() string
// such as "b:<flexkey>" or "c:<tag>:<comp>\x1d<comp>…", or a bare value
// "v=…") involves the target key: equal to it, or related to it by
// containment (the target contains the recorded node or vice versa — an
// inserted fragment root explains every node beneath it).
func mentionsKey(rec, target string) bool {
	if rec == "" || target == "" {
		return false
	}
	if rec == target {
		return true
	}
	for _, comp := range lineageComponents(rec) {
		if comp == target {
			return true
		}
		a, b := flexkey.Key(comp), flexkey.Key(target)
		if flexkey.IsSelfOrAncestorOf(a, b) || flexkey.IsSelfOrAncestorOf(b, a) {
			return true
		}
	}
	return false
}

// lineageComponents flattens a recorded key into its FlexKey/value
// components, stripping the "b:" / "c:<tag>:" / "v=" markers.
func lineageComponents(rec string) []string {
	switch {
	case strings.HasPrefix(rec, "b:"):
		return []string{rec[len("b:"):]}
	case strings.HasPrefix(rec, "c:"):
		rest := rec[len("c:"):]
		if i := strings.IndexByte(rest, ':'); i >= 0 {
			rest = rest[i+1:]
		}
		var comps []string
		for _, part := range strings.Split(rest, LineageSep) {
			comps = append(comps, lineageComponents(part)...)
		}
		return comps
	case strings.HasPrefix(rec, "v="):
		return []string{rec[len("v="):]}
	default:
		return []string{rec}
	}
}

// primMatches reports whether primitive record p explains the anchor key
// (the update-region anchor recorded on a delta tuple).
func primMatches(p PrimRecord, anchor string) bool {
	for _, k := range []string{p.Key, p.Parent} {
		if k == "" {
			continue
		}
		if k == anchor || flexkey.IsSelfOrAncestorOf(flexkey.Key(k), flexkey.Key(anchor)) ||
			flexkey.IsSelfOrAncestorOf(flexkey.Key(anchor), flexkey.Key(k)) {
			return true
		}
	}
	return false
}

func describePrim(p PrimRecord) string {
	switch p.Kind {
	case "insert":
		name := "#fragment"
		if p.Frag != nil && p.Frag.Name != "" {
			name = "<" + p.Frag.Name + ">"
		}
		return fmt.Sprintf("insert %s into %s under %s as key=%s", name, p.Doc, p.Parent, p.Key)
	case "delete":
		return fmt.Sprintf("delete %s from %s", p.Key, p.Doc)
	case "replace":
		return fmt.Sprintf("replace %s in %s with %q", p.Key, p.Doc, p.NewValue)
	}
	return p.Kind
}

// Explain renders the causal chain for one view node (or source key) from
// the retained rounds, newest first. The returned text names the
// originating primitive, its Validate verdict, the chain of XAT operators
// the delta flowed through, and the fusion(s) that folded it into the view.
func (j *Journal) Explain(view, key string) (string, error) {
	rounds := j.Rounds()
	// Rounds in which the view was skipped by the relevance filter, noted
	// while scanning: a key with no lineage but with skip records gets a
	// truthful "the view was pruned" answer instead of a not-found error.
	var skipped []uint64
	skipReason := ""
	// Aborted rounds whose partial lineage mentions the key: their effects
	// were rolled back, so they must never be presented as the provenance of
	// live view content — but if they are all the journal knows about the
	// key, saying so is the truthful answer.
	var aborted []*Round
	for i := len(rounds) - 1; i >= 0; i-- {
		r := rounds[i]
		for vi := range r.PerView {
			vl := &r.PerView[vi]
			if vl.View != view {
				continue
			}
			if vl.Skipped != "" {
				skipped = append(skipped, r.ID)
				skipReason = vl.Skipped
				continue
			}
			text, ok := explainInView(r, vl, key)
			if !ok {
				continue
			}
			if r.Aborted {
				aborted = append(aborted, r)
				continue
			}
			return text, nil
		}
	}
	if len(aborted) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%s node %s — no committed lineage; the key appears only in aborted round", view, key)
		if len(aborted) > 1 {
			b.WriteByte('s')
		}
		for i := len(aborted) - 1; i >= 0; i-- { // oldest first
			fmt.Fprintf(&b, " %d", aborted[i].ID)
		}
		fmt.Fprintf(&b, ", which failed (%s) and was rolled back: no view extent, source document or cache entry retains any effect of it.\n", aborted[0].Error)
		return b.String(), nil
	}
	if len(skipped) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%s node %s — no journaled lineage; view skipped (%s) in round", view, key, skipReason)
		if len(skipped) > 1 {
			b.WriteByte('s')
		}
		for i := len(skipped) - 1; i >= 0; i-- { // oldest first
			fmt.Fprintf(&b, " %d", skipped[i])
		}
		b.WriteString(": the round's update regions cannot affect this view, so its extent is unchanged.\n")
		return b.String(), nil
	}
	if len(rounds) == 0 {
		return "", fmt.Errorf("journal: no rounds recorded (is journaling enabled?)")
	}
	return "", fmt.Errorf("journal: no lineage for key %q in view %q across %d retained round(s)", key, view, len(rounds))
}

func explainInView(r *Round, vl *ViewLineage, key string) (string, bool) {
	// Operators whose recorded output mentions the key; ops are recorded
	// children-before-parents, so this order reads leaf → root.
	var chain []string
	anchors := map[string]bool{}
	for _, op := range vl.Ops {
		hit := false
		for _, t := range op.Out {
			for _, k := range t.Keys {
				if mentionsKey(k, key) {
					hit = true
					if t.Prim != "" {
						anchors[t.Prim] = true
					}
				}
			}
		}
		if hit {
			step := op.Kind
			if op.Detail != "" {
				step += "(" + op.Detail + ")"
			}
			chain = append(chain, step)
		}
	}
	// Fusions that folded the key into the view extent.
	var fusions []Fusion
	for _, f := range vl.Fusions {
		if mentionsKey(f.ViewKey, key) {
			fusions = append(fusions, f)
			continue
		}
		for _, s := range f.Sources {
			if mentionsKey(s, key) {
				fusions = append(fusions, f)
				break
			}
		}
	}
	if len(chain) == 0 && len(fusions) == 0 {
		return "", false
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s node %s — journaled lineage (round %d):\n", vl.View, key, r.ID)

	// Originating primitives: match tuple anchors (fall back to the key
	// itself) against the round's primitive stream, then attach verdicts.
	if len(anchors) == 0 {
		anchors[key] = true
	}
	seen := map[int]bool{}
	for pi, p := range r.Prims {
		matched := false
		for a := range anchors {
			if primMatches(p, a) {
				matched = true
				break
			}
		}
		if !matched || seen[pi] {
			continue
		}
		seen[pi] = true
		fmt.Fprintf(&b, "  primitive #%d: %s\n", pi, describePrim(p))
		for _, v := range r.Verdicts {
			if v.Prim != pi {
				continue
			}
			fmt.Fprintf(&b, "    verdict: %s", v.Action)
			if v.Path != "" {
				fmt.Fprintf(&b, " at %s", v.Path)
			}
			if v.Detail != "" {
				fmt.Fprintf(&b, " (%s)", v.Detail)
			}
			b.WriteByte('\n')
		}
		// Primitives dropped by pre-validation compaction carry no verdict;
		// say what absorbed them so the lineage stays truthful.
		for _, c := range r.Compactions {
			for _, d := range c.Dropped {
				if d != pi {
					continue
				}
				fmt.Fprintf(&b, "    compacted: %s into primitive #%d", c.Rule, c.Kept)
				if c.Detail != "" {
					fmt.Fprintf(&b, " (%s)", c.Detail)
				}
				b.WriteByte('\n')
			}
		}
	}
	if len(seen) == 0 && len(r.Prims) > 0 {
		fmt.Fprintf(&b, "  (no primitive in round %d anchors this key directly)\n", r.ID)
	}

	if len(chain) > 0 {
		fmt.Fprintf(&b, "  propagation: %s\n", strings.Join(chain, " → "))
	}
	for _, f := range fusions {
		fmt.Fprintf(&b, "  apply: fused into view node %s", f.ViewKey)
		if len(f.Sources) > 0 {
			fmt.Fprintf(&b, " (sources: %s)", strings.Join(f.Sources, ", "))
		}
		fmt.Fprintf(&b, " — +%d insert(s), -%d delete(s)", f.Inserts, f.Deletes)
		if f.Mods > 0 {
			fmt.Fprintf(&b, ", %d modification(s)", f.Mods)
		}
		b.WriteByte('\n')
	}
	return b.String(), true
}

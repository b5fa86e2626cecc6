package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xqview/internal/obs"
)

// fold accumulates tracer events into per-name totals. A span's self time is
// its duration minus the part its children on the same track cover.
type fold struct {
	self, total map[string]float64 // µs by normalized span name
	count       map[string]int
	poolWall    float64 // µs: per round, first view-track start → last view-track end
	rounds      int     // MaintainAll spans seen
}

func newFold() *fold {
	return &fold{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int{}}
}

// spanName folds operator ids and view labels away: "Join#12" → "op:Join",
// "base:Join#12" → "base:Join", "view-7" → "view".
func spanName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		if strings.HasPrefix(name, "base:") {
			return name[:i]
		}
		return "op:" + name[:i]
	}
	if strings.HasPrefix(name, "view-") {
		return "view"
	}
	return name
}

// add folds one batch of events (as returned by obs.Tracer.Events).
func (f *fold) add(evs []obs.Event) {
	byTrack := map[int64][]obs.Event{}
	var rounds, tracks []obs.Event // MaintainAll spans; top-level view-track spans
	for _, ev := range evs {
		if ev.Ph != "X" {
			continue
		}
		byTrack[ev.TID] = append(byTrack[ev.TID], ev)
		switch spanName(ev.Name) {
		case "MaintainAll":
			rounds = append(rounds, ev)
		case "view":
			tracks = append(tracks, ev)
		}
	}
	type open struct {
		name            string
		end, dur, child float64
	}
	for _, track := range byTrack {
		// Parents before children: earlier start first, longer span first.
		sort.SliceStable(track, func(i, j int) bool {
			if track[i].TS != track[j].TS {
				return track[i].TS < track[j].TS
			}
			return track[i].Dur > track[j].Dur
		})
		var stack []open
		pop := func() {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			f.self[top.name] += max(top.dur-top.child, 0)
		}
		for _, ev := range track {
			for len(stack) > 0 && ev.TS >= stack[len(stack)-1].end {
				pop()
			}
			if len(stack) > 0 {
				stack[len(stack)-1].child += ev.Dur
			}
			name := spanName(ev.Name)
			f.total[name] += ev.Dur
			f.count[name]++
			stack = append(stack, open{name: name, end: ev.TS + ev.Dur, dur: ev.Dur})
		}
		for len(stack) > 0 {
			pop()
		}
	}
	// The per-view Propagate+Apply phase has no span of its own: its wall
	// time in a round is the stretch its view tracks cover.
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].TS < rounds[j].TS })
	first := make([]float64, len(rounds))
	last := make([]float64, len(rounds))
	for _, tr := range tracks {
		i := sort.Search(len(rounds), func(i int) bool { return rounds[i].TS > tr.TS }) - 1
		if i < 0 || tr.TS > rounds[i].TS+rounds[i].Dur {
			continue
		}
		if first[i] == 0 || tr.TS < first[i] {
			first[i] = tr.TS
		}
		last[i] = max(last[i], tr.TS+tr.Dur)
	}
	for i := range rounds {
		f.poolWall += last[i] - first[i]
	}
	f.rounds += len(rounds)
}

// perRound is a span's accumulated time per traced round.
func (f *fold) perRound(m map[string]float64, names ...string) float64 {
	var t float64
	for _, n := range names {
		t += m[n]
	}
	return ratio(t, float64(f.rounds))
}

// writeTrace saves one tracer's events as Chrome trace JSON.
func writeTrace(dir, workload string, tr *obs.Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

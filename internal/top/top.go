// Package top renders the xqtop terminal dashboard: a fixed-size text frame
// summarizing the round-telemetry pipeline — per-phase latency quantiles and
// sparklines, cache/skip/compaction and shared sub-plan rates, arena
// occupancy, the MVCC snapshot tile (published epoch, reader-handle count,
// read-latency quantiles) and an aborted-round log — from one /stats/rounds
// payload.
//
// Render is pure: frame in, string out, no terminal I/O, no clock, no
// global state. The callers (cmd/xqtop polling a serving xqview, xqview
// -top rendering in-process) own polling, cursor control and sizing; the
// golden-frame tests exercise Render headlessly at fixed sizes.
package top

import (
	"fmt"
	"strings"
	"time"

	"xqview/internal/obs"
)

// Frame is one dashboard frame's data: the decoded /stats/rounds payload.
type Frame = obs.RoundsPayload

// MinWidth and MinHeight are the smallest frame Render produces; smaller
// requests are clamped so every layout row keeps its meaning.
const (
	MinWidth  = 40
	MinHeight = 10
)

// sparkLevels are the eight block characters a sparkline is quantized to.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// phaseRows fixes the phase table's order and how each row reads its
// per-round series out of a sample.
var phaseRows = []struct {
	name string
	pick func(s obs.RoundSample) int64
}{
	{"validate", func(s obs.RoundSample) int64 { return s.ValidateNS }},
	{"propagate", func(s obs.RoundSample) int64 { return s.PropagateNS }},
	{"apply", func(s obs.RoundSample) int64 { return s.ApplyNS }},
	{"source", func(s obs.RoundSample) int64 { return s.SourceNS }},
	{"total", func(s obs.RoundSample) int64 { return s.TotalNS }},
}

// Render draws one dashboard frame at exactly h lines of exactly w columns
// (measured in runes), joined by newlines. Content that does not fit is
// truncated; missing content is padded with spaces, so redrawing frames in
// place never leaves residue.
func Render(f Frame, w, h int) string {
	if w < MinWidth {
		w = MinWidth
	}
	if h < MinHeight {
		h = MinHeight
	}
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	state := "off"
	if f.Enabled {
		state = "on"
	}
	title := fmt.Sprintf(" xqtop · rounds %d · window %d/%d · telemetry %s",
		f.RoundsTotal, len(f.Window), f.WindowCap, state)
	lines = append(lines, rightAlign(title, badges(f), w))
	lines = append(lines, strings.Repeat("─", w))

	// Phase table: cumulative quantiles on the left, the window's per-round
	// series as a sparkline filling the rest of the row.
	add(" %-9s %9s %9s %9s  %s", "phase", "p50", "p95", "p99", "last rounds")
	for _, ph := range phaseRows {
		q := f.Quantiles[ph.name]
		prefix := fmt.Sprintf(" %-9s %9s %9s %9s  ", ph.name,
			fmtSeconds(q.P50), fmtSeconds(q.P95), fmtSeconds(q.P99))
		vals := make([]int64, len(f.Window))
		for i, s := range f.Window {
			vals[i] = ph.pick(s)
		}
		lines = append(lines, prefix+sparkline(vals, w-runeLen(prefix)))
	}
	lines = append(lines, strings.Repeat("─", w))

	// Last round plus window-wide rates.
	var last obs.RoundSample
	var views, skipped, primsIn, primsOut, hits, misses int64
	var shGroups, shFanout, shHits int64
	for _, s := range f.Window {
		views += int64(s.Views)
		skipped += int64(s.Skipped)
		primsIn += int64(s.PrimsIn)
		primsOut += int64(s.PrimsOut)
		hits += int64(s.CacheHits)
		misses += int64(s.CacheMisses)
		shGroups += int64(s.SharedGroups)
		shFanout += int64(s.SharedFanout)
		shHits += int64(s.SharedHits)
	}
	if n := len(f.Window); n > 0 {
		last = f.Window[n-1]
	}
	status := ""
	if last.Aborted {
		status = "  ABORTED"
	}
	add(" round   #%d  %s  prims %d→%d  views %d  skipped %d  roots %d%s",
		last.Seq, fmtNanos(last.TotalNS), last.PrimsIn, last.PrimsOut,
		last.Views, last.Skipped, last.DeltaRoots, status)
	add(" cache   hits %d  misses %d  folds %d  evicts %d · window hit-rate %s",
		last.CacheHits, last.CacheMisses, last.CacheFolds, last.CacheEvicts,
		ratio(hits, hits+misses))
	add(" shared  groups %d  fanout %d  saved %d · window shared hit-rate %s",
		last.SharedGroups, last.SharedFanout, last.SharedHits,
		ratio(shHits, shFanout))
	add(" apply   merged %d  inserted %d  removed %d  modified %d",
		last.Merged, last.Inserted, last.Removed, last.Modified)
	add(" arena   %s in %d chunks · heap %d objs/round",
		fmtBytes(last.ArenaBytes), last.ArenaChunks, last.HeapAllocs)
	read := f.Quantiles["read"]
	add(" snap    epoch %d  readers %d · read p50 %s p99 %s (%d)",
		last.SnapEpoch, last.SnapReaders,
		fmtSeconds(read.P50), fmtSeconds(read.P99), read.N)
	add(" rates   skip %s · compaction %s · journal %d/%d (dropped %d) · trace drops %d",
		ratio(skipped, views), ratio(primsIn-primsOut, primsIn),
		extraInt(f.Extras, "journal_rounds"), extraInt(f.Extras, "journal_cap"),
		extraInt(f.Extras, "journal_dropped"), f.TraceDroppedEvents)
	lines = append(lines, strings.Repeat("─", w))

	// Aborted-round log: newest first, filling whatever rows remain.
	lines = append(lines, " aborted rounds (newest first)")
	aborts := abortLog(f)
	if len(aborts) == 0 {
		lines = append(lines, "   (none)")
	}
	lines = append(lines, aborts...)

	out := make([]string, h)
	for i := range out {
		if i < len(lines) {
			out[i] = pad(lines[i], w)
		} else {
			out[i] = strings.Repeat(" ", w)
		}
	}
	return strings.Join(out, "\n")
}

// badges flags saturation the operator should act on: a non-zero trace-drop
// counter or journal rounds evicted by the retention ring.
func badges(f Frame) string {
	var b []string
	if f.TraceDroppedEvents > 0 {
		b = append(b, fmt.Sprintf("[! trace drops %d]", f.TraceDroppedEvents))
	}
	if d := extraInt(f.Extras, "journal_dropped"); d > 0 {
		b = append(b, fmt.Sprintf("[! journal drops %d]", d))
	}
	return strings.Join(b, " ")
}

// abortLog lists the window's aborted rounds, newest first, annotated with
// the journal's abort errors when the mounting layer injected them.
func abortLog(f Frame) []string {
	var out []string
	for i := len(f.Window) - 1; i >= 0; i-- {
		s := f.Window[i]
		if s.Aborted {
			out = append(out, fmt.Sprintf("   #%-5d %-9s prims %d  views %d",
				s.Seq, fmtNanos(s.TotalNS), s.PrimsIn, s.Views))
		}
	}
	if errs, ok := f.Extras["journal_aborted"].([]any); ok {
		for i := len(errs) - 1; i >= 0; i-- {
			out = append(out, fmt.Sprintf("   %v", errs[i]))
		}
	} else if errs, ok := f.Extras["journal_aborted"].([]string); ok {
		for i := len(errs) - 1; i >= 0; i-- {
			out = append(out, "   "+errs[i])
		}
	}
	return out
}

// sparkline quantizes vals into width block characters, newest samples
// right-aligned. A flat-zero series renders as baseline blocks; an empty one
// as dots.
func sparkline(vals []int64, width int) string {
	if width < 1 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var max int64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	r := make([]rune, width)
	for i := range r {
		r[i] = '·'
	}
	off := width - len(vals)
	for i, v := range vals {
		lvl := 0
		if max > 0 && v > 0 {
			lvl = int(float64(v) / float64(max) * float64(len(sparkLevels)-1))
			if lvl >= len(sparkLevels) {
				lvl = len(sparkLevels) - 1
			}
		}
		r[off+i] = sparkLevels[lvl]
	}
	return string(r)
}

// fmtSeconds renders a float-seconds quantile with a duration unit.
func fmtSeconds(s float64) string {
	return fmtNanos(int64(s*1e9 + 0.5))
}

// fmtNanos renders a nanosecond count with the natural unit for its scale.
func fmtNanos(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders a byte count in binary units.
func fmtBytes(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	}
}

// ratio renders num/den as a percentage, "-" when the denominator is zero.
func ratio(num, den int64) string {
	if den <= 0 {
		return "-"
	}
	return fmt.Sprintf("%d%%", num*100/den)
}

// extraInt reads a numeric extras value, tolerating both the in-process
// types (int, int64, uint64) and JSON decoding's float64.
func extraInt(extras map[string]any, key string) int64 {
	switch v := extras[key].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case uint64:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

func runeLen(s string) int { return len([]rune(s)) }

// pad truncates or space-pads s to exactly w runes.
func pad(s string, w int) string {
	r := []rune(s)
	if len(r) > w {
		return string(r[:w])
	}
	return s + strings.Repeat(" ", w-len(r))
}

// rightAlign composes a line from a left and a right part, the right part
// flush against column w. Warning badges must stay visible at any width, so
// a collision truncates the left part, never the right.
func rightAlign(left, right string, w int) string {
	if right == "" {
		return left
	}
	gap := w - runeLen(left) - runeLen(right)
	if gap < 1 {
		keep := w - runeLen(right) - 1
		if keep < 0 {
			return right
		}
		left = string([]rune(left)[:keep])
		gap = 1
	}
	return left + strings.Repeat(" ", gap) + right
}

// Package obs is the zero-dependency observability layer of the engine:
// span tracing over the VPA phases and XAT operators (Chrome trace-event
// output), an atomic metrics registry (Prometheus text and expvar JSON
// exporters), and a leveled structured logger. Everything is built so that
// the disabled state costs next to nothing on the hot path: a nil *Tracer
// produces zero Spans whose methods return immediately, and metric
// recording sites are gated behind the package-level Enabled check (one
// atomic load).
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates the metric recording sites threaded through the engine.
// Tracing is gated separately (by whether a Tracer is present), so a
// maintenance run can be traced without turning the metrics sites on and
// vice versa.
var enabled atomic.Bool

// Enabled reports whether metric recording sites should record.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns the metric recording sites on or off. It returns the
// previous state so callers (benchmark arms, tests) can restore it.
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// Event is one Chrome trace-event (the "Trace Event Format" consumed by
// chrome://tracing and Perfetto). Spans emit complete events (ph "X");
// track-naming metadata uses ph "M".
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since tracer start
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultTraceLimit caps the event buffer of tracers made by NewTracer.
// A long-running -serve process traces every maintenance batch; without a
// cap the buffer grows forever. Beyond the cap new events are dropped (the
// earliest events keep the trace's context) and counted.
const DefaultTraceLimit = 1 << 16

// cTraceDropped counts events dropped across all tracers once their buffer
// limit is reached.
var cTraceDropped = Default.CounterOf("obs_trace_dropped_events", "trace events dropped at the tracer's buffer limit")

// Tracer collects spans for one process. It is safe for concurrent use:
// spans started on different tracks (goroutines) append under one mutex
// only when they end, never while running. The zero value is not usable;
// a nil *Tracer is the disabled tracer and every method on it (and on the
// zero Span it hands out) is a cheap no-op.
type Tracer struct {
	start   time.Time
	nextTID atomic.Int64
	limit   int // max buffered events; <= 0 means unbounded
	mu      sync.Mutex
	events  []Event
	dropped atomic.Int64
}

// NewTracer starts a tracer with the default buffer limit; timestamps are
// measured from this call using the monotonic clock.
func NewTracer() *Tracer { return NewTracerLimit(DefaultTraceLimit) }

// NewTracerLimit starts a tracer that buffers at most limit events; limit
// <= 0 means unbounded (use only for short-lived runs).
func NewTracerLimit(limit int) *Tracer {
	return &Tracer{start: time.Now(), limit: limit}
}

// Dropped reports how many events this tracer discarded at its limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// append records an event, dropping it if the buffer is at its limit.
// Callers must not hold t.mu.
func (t *Tracer) append(ev Event) {
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.mu.Unlock()
		t.dropped.Add(1)
		cTraceDropped.Inc()
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Span is one timed region on a track. The zero Span is disabled. Spans
// nest by time within a track: children started via Child carry the parent
// track and, ending before the parent, render nested in the trace viewer.
type Span struct {
	tr   *Tracer
	name string
	tid  int64
	t0   time.Duration
	args map[string]any
}

// StartSpan opens a span on a fresh track (a new tid), naming the track
// after the span. Use it for concurrent units of work — one track per
// maintained view — and Child for everything nested inside one.
func (t *Tracer) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.StartSpanAt(name, time.Now())
}

// StartSpanAt is StartSpan for a span that began at a clock reading the
// caller already took: a caller that times its own phases hands the same
// reading to the span, so span and measurement agree to the nanosecond.
func (t *Tracer) StartSpanAt(name string, at time.Time) Span {
	if t == nil {
		return Span{}
	}
	tid := t.nextTID.Add(1)
	t.append(Event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
		Args: map[string]any{"name": name}})
	return Span{tr: t, name: name, tid: tid, t0: at.Sub(t.start), args: map[string]any{}}
}

// Child opens a nested span on the same track.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt is Child for a span that began at the caller's clock reading at.
func (s Span) ChildAt(name string, at time.Time) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{tr: s.tr, name: name, tid: s.tid, t0: at.Sub(s.tr.start), args: map[string]any{}}
}

// Before records a finished span that ran for d and ended where s began, on
// s's track: a sibling immediately preceding s. It is how work timed by a
// caller ahead of the span's owner (a script's parse and target evaluation,
// ahead of its round) lands on the owner's track.
func (s Span) Before(name string, d time.Duration) {
	if s.tr == nil {
		return
	}
	d = min(d, s.t0) // a tracer attached mid-way cannot place what came before it
	s.tr.append(Event{Name: name, Ph: "X", PID: 1, TID: s.tid,
		TS:  float64((s.t0 - d).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3})
}

// Enabled reports whether the span records anything; use it to skip
// argument computation on the disabled path.
func (s Span) Enabled() bool { return s.tr != nil }

// Arg attaches a key/value to the span (rendered in the trace viewer's
// detail pane). Safe on the zero Span.
func (s Span) Arg(key string, value any) Span {
	if s.tr != nil {
		s.args[key] = value
	}
	return s
}

// End closes the span and records its event.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt closes the span at the caller's clock reading at.
func (s Span) EndAt(at time.Time) {
	if s.tr == nil {
		return
	}
	end := at.Sub(s.tr.start)
	args := s.args
	if len(args) == 0 {
		args = nil
	}
	s.tr.append(Event{Name: s.name, Ph: "X", PID: 1, TID: s.tid,
		TS:   float64(s.t0.Nanoseconds()) / 1e3,
		Dur:  float64((end - s.t0).Nanoseconds()) / 1e3,
		Args: args})
}

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in stable order: metadata
// first, then spans by start time, ties broken by track, then longer span
// first (a parent before a child that starts with it), then name.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		if (evs[i].Ph == "M") != (evs[j].Ph == "M") {
			return evs[i].Ph == "M"
		}
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		if evs[i].Dur != evs[j].Dur {
			return evs[i].Dur > evs[j].Dur
		}
		return evs[i].Name < evs[j].Name
	})
	return evs
}

// WriteJSON writes the trace in the Chrome trace-event JSON object form
// ({"traceEvents": [...]}), loadable in chrome://tracing and Perfetto.
func (t *Tracer) WriteJSON(w io.Writer) error {
	evs := t.Events()
	if evs == nil {
		evs = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}

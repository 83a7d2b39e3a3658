package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one Chrome trace_event. Timestamps and durations are in
// microseconds, per the format. Complete spans use Phase "X", instants
// "i", and metadata (thread names) "M".
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Tracer collects trace events. A nil *Tracer is a valid disabled tracer:
// every recording method is a no-op. All methods are safe for concurrent
// use.
//
// Wall-clock spans are timestamped relative to the tracer's creation time;
// virtual spans carry their own timeline (seconds from zero). Mixing both
// in one tracer is legal but rarely useful — the timelines are unrelated.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	events []Event
}

// NewTracer returns an enabled tracer whose wall-clock origin is now.
func NewTracer() *Tracer {
	return &Tracer{origin: time.Now()}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of events collected so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

func (t *Tracer) add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// us converts a wall-clock instant to trace microseconds.
func (t *Tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.origin)) / float64(time.Microsecond)
}

// Span records a completed wall-clock span on thread tid.
func (t *Tracer) Span(cat, name string, tid int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: "X", TS: t.us(start),
		Dur: float64(dur) / float64(time.Microsecond), TID: tid})
}

// SpanArgs is Span with attached args. The tracer takes ownership of the
// map; callers must not mutate it afterwards.
func (t *Tracer) SpanArgs(cat, name string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: "X", TS: t.us(start),
		Dur: float64(dur) / float64(time.Microsecond), TID: tid, Args: args})
}

// Instant records an instantaneous wall-clock event.
func (t *Tracer) Instant(cat, name string, tid int, at time.Time) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: "i", TS: t.us(at), TID: tid, Scope: "t"})
}

// InstantArgs is Instant with attached args (same ownership rule as
// SpanArgs).
func (t *Tracer) InstantArgs(cat, name string, tid int, at time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: "i", TS: t.us(at), TID: tid, Scope: "t", Args: args})
}

// VirtualSpan records a span on a virtual (simulated) timeline, with start
// and end in seconds from time zero. Same ownership rule for args.
func (t *Tracer) VirtualSpan(cat, name string, tid int, start, end float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: "X", TS: start * 1e6,
		Dur: (end - start) * 1e6, TID: tid, Args: args})
}

// VirtualInstant records an instantaneous event on a virtual timeline (at
// in seconds).
func (t *Tracer) VirtualInstant(cat, name string, tid int, at float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: "i", TS: at * 1e6, TID: tid, Scope: "t", Args: args})
}

// NameThread labels thread tid in the trace viewer via a thread_name
// metadata event.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.add(Event{Name: "thread_name", Phase: "M", TID: tid,
		Args: map[string]any{"name": name}})
}

// Events returns a copy of the collected events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// traceFile is the Chrome trace_event JSON object format envelope.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteJSON writes the trace in the Chrome trace_event JSON object format,
// loadable in chrome://tracing or https://ui.perfetto.dev. A nil tracer
// writes an empty (still valid) trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return nil
}

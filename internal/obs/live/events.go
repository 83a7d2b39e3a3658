package live

import "sync"

// Event is one fault-relevant runtime event: an instance death, a dropped
// or retried data set, a timeout, or a drain marker. Events are what a
// dashboard tails to explain *why* throughput moved; the regular flow of
// completed data sets is deliberately not an event stream (it is carried
// by the windowed instruments at far lower cost).
type Event struct {
	// TS is seconds since the monitor started (virtual seconds in replays).
	TS float64 `json:"ts"`
	// Kind is "death", "drop", "retry", "timeout", "drain-start" or
	// "drain-end".
	Kind string `json:"kind"`
	// Stage names the stage involved, when any.
	Stage string `json:"stage,omitempty"`
	// Dataset is the stream index involved, or -1.
	Dataset int `json:"dataset"`
	// Detail carries free-form context (e.g. the live replica count on
	// "death").
	Detail string `json:"detail,omitempty"`
}

// eventRing bounds the replayable history kept for late subscribers.
const eventRing = 256

// Events is a broadcast hub for Event values: a bounded history ring plus
// live fan-out to subscribers. Publishing never blocks — a subscriber that
// cannot keep up misses events (its stream is best-effort; the ring and
// the instruments remain authoritative). A nil *Events is valid and
// disabled.
type Events struct {
	mu     sync.Mutex
	ring   [eventRing]Event
	n      int // total published
	subs   map[int]chan Event
	nextID int
}

// NewEvents returns an enabled event hub.
func NewEvents() *Events {
	return &Events{subs: map[int]chan Event{}}
}

// Publish records ev in the history ring and fans it out.
func (e *Events) Publish(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.ring[e.n%eventRing] = ev
	e.n++
	for _, ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	e.mu.Unlock()
}

// History returns the retained events, oldest first.
func (e *Events) History() []Event {
	ev, _ := e.HistoryN()
	return ev
}

// HistoryN returns the retained events plus the total number ever
// published (the sequence number of the last returned event). The pair
// lets a streaming reader replay history and then skip exactly the
// duplicated prefix of a live subscription.
func (e *Events) HistoryN() ([]Event, int) {
	if e == nil {
		return nil, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.n
	if n > eventRing {
		out := make([]Event, eventRing)
		for i := 0; i < eventRing; i++ {
			out[i] = e.ring[(n+i)%eventRing]
		}
		return out, n
	}
	out := make([]Event, n)
	copy(out, e.ring[:n])
	return out, n
}

// Len returns the total number of events published.
func (e *Events) Len() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Subscribe registers a listener with the given channel buffer and
// returns the event channel, the publication count at subscription time
// (events with a higher sequence arrive on the channel), and a cancel
// function. Events published while the buffer is full are skipped for
// this subscriber.
func (e *Events) Subscribe(buf int) (<-chan Event, int, func()) {
	if e == nil {
		ch := make(chan Event)
		close(ch)
		return ch, 0, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	e.mu.Lock()
	id := e.nextID
	e.nextID++
	e.subs[id] = ch
	seq := e.n
	e.mu.Unlock()
	return ch, seq, func() {
		e.mu.Lock()
		delete(e.subs, id)
		e.mu.Unlock()
	}
}

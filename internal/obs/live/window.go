package live

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWindow is the rolling window length used when an Options.Window
// is zero.
const DefaultWindow = 30 * time.Second

const (
	// counterSlots is the ring size of a windowed counter; the window is
	// divided into this many slots, which bounds the expiry granularity at
	// window/counterSlots.
	counterSlots = 16
	// histSlots is the ring size of a windowed histogram. Each slot carries
	// a full bucket array, so the ring is kept shorter than the counter's.
	histSlots = 8
)

// Histogram bucket layout: log-spaced buckets covering 1ns .. ~1000s of
// seconds (or any positive unit), 8 buckets per decade across 14 decades,
// plus an underflow and an overflow bucket. Quantiles are estimated as the
// upper bound of the bucket where the cumulative count crosses the rank,
// which bounds the relative error at one bucket width (~33%).
const (
	histDecades      = 14
	histPerDecade    = 8
	histFirstDecade  = -9 // buckets start at 1e-9
	histBuckets      = histDecades*histPerDecade + 2
	histUnderflowIdx = 0
)

// bucketOf returns the index of the bucket v falls in.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return histUnderflowIdx
	}
	// Clamp before converting: int(+Inf) is undefined (the minimum int on
	// amd64, which would file +Inf under the underflow bucket).
	i := math.Floor((math.Log10(v)-histFirstDecade)*histPerDecade) + 1
	if i < 1 {
		return histUnderflowIdx
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return int(i)
}

// bucketUpper is the upper bound of bucket i (the quantile estimate).
func bucketUpper(i int) float64 {
	if i <= histUnderflowIdx {
		return 0
	}
	return math.Pow(10, float64(i)/histPerDecade+histFirstDecade)
}

// quantileFromBuckets estimates quantile q from a bucket array laid out
// per bucketOf with count total samples, clamped to the observed
// [min, max] envelope. The last bucket is the overflow bucket: its upper
// bound is +Inf, so a rank that lands there reports the observed max
// rather than a (meaningless, finite) bucket boundary.
func quantileFromBuckets(buckets []int64, count int64, q, min, max float64) float64 {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range buckets {
		cum += b
		if cum >= rank {
			if i == len(buckets)-1 {
				return max
			}
			u := bucketUpper(i)
			if u > max {
				u = max
			}
			if u < min {
				u = min
			}
			return u
		}
	}
	return max
}

// Counter is a monotonically increasing counter that additionally tracks a
// rolling window, so it reports both a cumulative total (for Prometheus
// counter semantics) and a windowed rate. A nil *Counter is a valid
// disabled instrument: all methods are no-ops or return zero.
type Counter struct {
	mu      sync.Mutex
	clock   Clock
	slot    int64 // nanoseconds per ring slot
	created int64
	epochs  [counterSlots]int64
	vals    [counterSlots]int64
	total   int64
}

func newCounter(clock Clock, window time.Duration) *Counter {
	c := &Counter{clock: clock, slot: int64(window) / counterSlots}
	if c.slot <= 0 {
		c.slot = 1
	}
	for i := range c.epochs {
		c.epochs[i] = -1
	}
	c.created = clock()
	return c
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	e := c.clock() / c.slot
	i := int(e % counterSlots)
	if i < 0 {
		i += counterSlots
	}
	if c.epochs[i] != e {
		c.epochs[i] = e
		c.vals[i] = 0
	}
	c.vals[i] += delta
	c.total += delta
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the cumulative count since creation.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// windowSumLocked sums the slots that fall inside the window ending now.
func (c *Counter) windowSumLocked(now int64) int64 {
	e := now / c.slot
	var sum int64
	for i := range c.epochs {
		if d := e - c.epochs[i]; d >= 0 && d < counterSlots {
			sum += c.vals[i]
		}
	}
	return sum
}

// WindowSum returns the count accumulated inside the rolling window.
func (c *Counter) WindowSum() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windowSumLocked(c.clock())
}

// Rate returns the windowed rate in events per second. Before a full
// window has elapsed the divisor is the time since creation, so early
// rates are not diluted by the empty remainder of the window, but never
// less than one slot: a one-shot report reads its counters moments after
// creating them, and dividing by those microseconds reports a handful of
// events as tens of thousands per second.
func (c *Counter) Rate() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	elapsed := min(max(now-c.created, c.slot), c.slot*counterSlots)
	return float64(c.windowSumLocked(now)) / (float64(elapsed) / 1e9)
}

// Gauge is a last-value instrument. A nil *Gauge is a valid disabled
// instrument. Gauges are lock-free (atomic bit stores).
type Gauge struct {
	bits atomic.Uint64
}

func newGauge() *Gauge { return &Gauge{} }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histSlot is one time bucket of a windowed histogram. Alongside the
// sample counts it keeps one exemplar trace ID per value bucket, so a
// windowed quantile can be traced back to a concrete request
// (DESIGN.md §13).
type histSlot struct {
	epoch     int64
	count     int64
	sum       float64
	min, max  float64
	buckets   [histBuckets]int64
	exemplars [histBuckets]string
}

// Histogram is a rolling-window histogram: a ring of time slots, each
// holding a full log-spaced bucket array, merged at read time into windowed quantiles. Cumulative count and sum
// are tracked separately so exposition can emit monotone _count/_sum
// series alongside windowed quantiles. A nil *Histogram is a valid
// disabled instrument.
type Histogram struct {
	mu         sync.Mutex
	clock      Clock
	slot       int64
	created    int64
	slots      [histSlots]histSlot
	total      int64
	totalSum   float64
	allMin     float64
	allMax     float64
	everSawOne bool
}

func newHistogram(clock Clock, window time.Duration) *Histogram {
	h := &Histogram{clock: clock, slot: int64(window) / histSlots}
	if h.slot <= 0 {
		h.slot = 1
	}
	for i := range h.slots {
		h.slots[i].epoch = -1
	}
	h.created = clock()
	return h
}

// Observe adds one sample. The hot path touches only ring arrays: no
// allocation, one mutex.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar adds one sample and, when exemplar is non-empty,
// attaches it as the exemplar trace ID of the value bucket the sample
// falls into (last writer wins). Exemplar storage reuses the slot ring:
// no allocation beyond the caller's string.
func (h *Histogram) ObserveExemplar(v float64, exemplar string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	e := h.clock() / h.slot
	i := int(e % histSlots)
	if i < 0 {
		i += histSlots
	}
	s := &h.slots[i]
	if s.epoch != e {
		*s = histSlot{epoch: e}
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	b := bucketOf(v)
	s.buckets[b]++
	if exemplar != "" {
		s.exemplars[b] = exemplar
	}
	h.total++
	h.totalSum += v
	if !h.everSawOne || v < h.allMin {
		h.allMin = v
	}
	if !h.everSawOne || v > h.allMax {
		h.allMax = v
	}
	h.everSawOne = true
	h.mu.Unlock()
}

// WindowStat summarizes the samples inside the rolling window.
type WindowStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Rate  float64 `json:"rate"` // samples per second over the window
	// P99Exemplar is the trace ID of a request that landed in the value
	// bucket containing the windowed p99, when one was attached via
	// ObserveExemplar.
	P99Exemplar string `json:"p99_exemplar,omitempty"`
}

// Window merges the live slots and returns the windowed summary.
func (h *Histogram) Window() WindowStat {
	if h == nil {
		return WindowStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock()
	e := now / h.slot
	var merged [histBuckets]int64
	var mergedEx [histBuckets]string
	var mergedExEpoch [histBuckets]int64
	var st WindowStat
	first := true
	for i := range h.slots {
		s := &h.slots[i]
		if d := e - s.epoch; d < 0 || d >= histSlots || s.count == 0 {
			continue
		}
		st.Count += s.count
		st.Sum += s.sum
		if first || s.min < st.Min {
			st.Min = s.min
		}
		if first || s.max > st.Max {
			st.Max = s.max
		}
		first = false
		for b, n := range s.buckets {
			merged[b] += n
			if x := s.exemplars[b]; x != "" && (mergedEx[b] == "" || s.epoch > mergedExEpoch[b]) {
				mergedEx[b] = x
				mergedExEpoch[b] = s.epoch
			}
		}
	}
	if st.Count > 0 {
		st.Mean = st.Sum / float64(st.Count)
		st.P50 = quantileFromBuckets(merged[:], st.Count, 0.50, st.Min, st.Max)
		st.P90 = quantileFromBuckets(merged[:], st.Count, 0.90, st.Min, st.Max)
		st.P99 = quantileFromBuckets(merged[:], st.Count, 0.99, st.Min, st.Max)
		// Trace the p99 back to a concrete request: the freshest exemplar in
		// the p99's own value bucket, falling back to the nearest populated
		// bucket above it (quantile interpolation can land just below the
		// bucket that actually holds the tail samples).
		for b := bucketOf(st.P99); b < histBuckets; b++ {
			if mergedEx[b] != "" {
				st.P99Exemplar = mergedEx[b]
				break
			}
		}
	}
	elapsed := now - h.created
	if window := h.slot * histSlots; elapsed > window {
		elapsed = window
	}
	if elapsed > 0 {
		st.Rate = float64(st.Count) / (float64(elapsed) / 1e9)
	}
	return st
}

// Total returns the cumulative sample count and value sum since creation.
func (h *Histogram) Total() (count int64, sum float64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total, h.totalSum
}

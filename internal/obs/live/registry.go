package live

import (
	"maps"
	"sort"
	"sync"
	"time"
)

// Options configures a Registry or Monitor.
type Options struct {
	// Window is the rolling window length (default DefaultWindow).
	Window time.Duration
	// Clock supplies timestamps; nil uses the wall clock. Replays install
	// a VirtualClock's Clock here.
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Clock == nil {
		o.Clock = wallClock
	}
	return o
}

// Registry is the repo's one metrics registry: a named collection of live
// instruments with flat dotted names ("dp.map_chain.states",
// "ingest.admit", "adapt.cycles"). The solvers, the adaptive controller,
// the ingest plane, the SLO engine and the fleet all record into it, and
// /metrics and pipemap -metrics print it through WriteProm. Instrument
// handles are create-on-first-use and stable, so hot paths fetch them once
// and record lock-locally afterwards. A nil *Registry is a valid disabled
// registry: it hands out nil instruments, which are themselves disabled
// and free, so a solver calls r.Counter(name).Add(n) with no nil check.
type Registry struct {
	mu          sync.Mutex
	opt         Options
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an enabled registry.
func NewRegistry(opt Options) *Registry {
	return &Registry{
		opt:         opt.withDefaults(),
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// Enabled reports whether the registry records samples.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the named windowed counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = newCounter(r.opt.Clock, r.opt.Window)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = newGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named windowed histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(r.opt.Clock, r.opt.Window)
		r.hists[name] = h
	}
	return h
}

// CounterStat is the exported state of one windowed counter.
type CounterStat struct {
	Total  int64   `json:"total"`
	Window int64   `json:"window"`
	Rate   float64 `json:"rate"`
}

// Snapshot is a point-in-time copy of every live instrument.
type Snapshot struct {
	Counters      map[string]CounterStat          `json:"counters"`
	Gauges        map[string]float64              `json:"gauges"`
	Histograms    map[string]WindowStat           `json:"histograms"`
	CounterVecs   map[string]VecStat[CounterStat] `json:"counterVecs,omitempty"`
	GaugeVecs     map[string]VecStat[float64]     `json:"gaugeVecs,omitempty"`
	HistogramVecs map[string]VecStat[WindowStat]  `json:"histogramVecs,omitempty"`
}

// instruments is a copy of a registry's instrument maps. Reading an
// instrument takes its own lock, so readers copy the maps under the
// registry lock and read the instruments after releasing it.
type instruments struct {
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

func (r *Registry) instruments() instruments {
	r.mu.Lock()
	defer r.mu.Unlock()
	return instruments{
		counters:    maps.Clone(r.counters),
		gauges:      maps.Clone(r.gauges),
		hists:       maps.Clone(r.hists),
		counterVecs: maps.Clone(r.counterVecs),
		gaugeVecs:   maps.Clone(r.gaugeVecs),
		histVecs:    maps.Clone(r.histVecs),
	}
}

func counterStat(c *Counter) CounterStat {
	return CounterStat{Total: c.Total(), Window: c.WindowSum(), Rate: c.Rate()}
}

// Snapshot copies the registry's current state; a nil registry yields an
// empty (non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]CounterStat{},
		Gauges:     map[string]float64{},
		Histograms: map[string]WindowStat{},
	}
	if r == nil {
		return s
	}
	in := r.instruments()
	for k, c := range in.counters {
		s.Counters[k] = counterStat(c)
	}
	for k, g := range in.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range in.hists {
		s.Histograms[k] = h.Window()
	}
	if len(in.counterVecs) > 0 {
		s.CounterVecs = map[string]VecStat[CounterStat]{}
		for k, v := range in.counterVecs {
			s.CounterVecs[k] = vecStat(v.label, &v.vec, counterStat)
		}
	}
	if len(in.gaugeVecs) > 0 {
		s.GaugeVecs = map[string]VecStat[float64]{}
		for k, v := range in.gaugeVecs {
			s.GaugeVecs[k] = vecStat(v.label, &v.vec, (*Gauge).Value)
		}
	}
	if len(in.histVecs) > 0 {
		s.HistogramVecs = map[string]VecStat[WindowStat]{}
		for k, v := range in.histVecs {
			s.HistogramVecs[k] = vecStat(v.label, &v.vec, (*Histogram).Window)
		}
	}
	return s
}

// vecStat reads every series of one labeled family in label order.
func vecStat[T, S any](label string, v *vec[T], stat func(T) S) VecStat[S] {
	series := v.snapshot()
	vs := VecStat[S]{LabelKey: label}
	for _, lv := range sortedKeys(series) {
		vs.Series = append(vs.Series, LabeledStat[S]{Label: lv, Value: stat(series[lv])})
	}
	return vs
}

// sortedKeys returns the keys of a map in sorted order, for deterministic
// exposition output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

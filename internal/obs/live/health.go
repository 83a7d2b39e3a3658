package live

import (
	"fmt"
	"sync/atomic"

	"pipemap/internal/model"
)

// StageInfo describes one pipeline stage to the health model: its identity
// and the model's prediction for it, against which live observations are
// compared.
type StageInfo struct {
	// Name is the stage label (typically the module's task names).
	Name string `json:"name"`
	// Workers and Replicas mirror the mapping's per-module p and r.
	Workers  int `json:"workers"`
	Replicas int `json:"replicas"`
	// PredictedResponse is the model response time f_i in seconds: the time
	// one instance spends per data set (compute plus its share of
	// transfers).
	PredictedResponse float64 `json:"predictedResponse"`
	// PredictedPeriod is f_i / r_i, the stage's effective contribution to
	// the pipeline period.
	PredictedPeriod float64 `json:"predictedPeriod"`
}

// Config describes the pipeline a Monitor observes.
type Config struct {
	Stages []StageInfo
	// Mapping is the human-readable mapping summary shown in /pipeline.
	Mapping string
	// PredictedThroughput and PredictedLatency are the model's 1/max_i
	// (f_i/r_i) and sum_i f_i.
	PredictedThroughput float64
	PredictedLatency    float64
	// Options are the instrument options (window, clock).
	Options Options
}

// ConfigFromMapping derives the monitor configuration from a model
// mapping: one stage per module, with f_i and f_i/r_i evaluated from the
// chain's cost functions.
func ConfigFromMapping(m model.Mapping) Config {
	resp := m.ResponseTimes()
	eff := m.EffectiveResponseTimes()
	stages := make([]StageInfo, len(m.Modules))
	for i, mod := range m.Modules {
		stages[i] = StageInfo{
			Name:              m.Chain.TaskNames(mod.Lo, mod.Hi),
			Workers:           mod.Procs,
			Replicas:          mod.Replicas,
			PredictedResponse: resp[i],
			PredictedPeriod:   eff[i],
		}
	}
	return Config{
		Stages:              stages,
		Mapping:             m.String(),
		PredictedThroughput: m.Throughput(),
		PredictedLatency:    m.Latency(),
	}
}

// Scale returns a copy of the config with all predicted times divided by
// speedup (and throughput multiplied), matching a runtime that executes
// the model timeline compressed by that factor.
func (c Config) Scale(speedup float64) Config {
	if speedup <= 0 || speedup == 1 {
		return c
	}
	out := c
	out.Stages = make([]StageInfo, len(c.Stages))
	copy(out.Stages, c.Stages)
	for i := range out.Stages {
		out.Stages[i].PredictedResponse /= speedup
		out.Stages[i].PredictedPeriod /= speedup
	}
	out.PredictedThroughput *= speedup
	out.PredictedLatency /= speedup
	return out
}

// stageState is the live instrument set of one stage.
type stageState struct {
	info     StageInfo
	done     *Counter
	lat      *Histogram
	retries  *Counter
	drops    *Counter
	timeouts *Counter
	deaths   atomic.Int64
	live     atomic.Int32
}

// Monitor is the pipeline health model: it ingests per-attempt
// observations from a running pipeline and derives live per-stage
// throughput, bottleneck attribution, and a nominal/degraded status. All
// ingestion methods are safe for concurrent use, allocation-free, and
// valid on a nil receiver (disabled monitoring).
type Monitor struct {
	clock     Clock
	window    int64
	cfg       Config
	stages    []stageState
	completed *Counter
	latency   *Histogram
	events    *Events
	startNs   atomic.Int64
	started   atomic.Bool
	finished  atomic.Bool
	draining  atomic.Bool
}

// NewMonitor returns a monitor for the configured pipeline.
func NewMonitor(cfg Config) *Monitor {
	opt := cfg.Options.withDefaults()
	m := &Monitor{
		clock:  opt.Clock,
		window: int64(opt.Window),
		cfg:    cfg,
		stages: make([]stageState, len(cfg.Stages)),
		events: NewEvents(),
	}
	m.completed = newCounter(opt.Clock, opt.Window)
	m.latency = newHistogram(opt.Clock, opt.Window)
	for i := range m.stages {
		s := &m.stages[i]
		s.info = cfg.Stages[i]
		s.done = newCounter(opt.Clock, opt.Window)
		s.lat = newHistogram(opt.Clock, opt.Window)
		s.retries = newCounter(opt.Clock, opt.Window)
		s.drops = newCounter(opt.Clock, opt.Window)
		s.timeouts = newCounter(opt.Clock, opt.Window)
		reps := s.info.Replicas
		if reps < 1 {
			reps = 1
		}
		s.live.Store(int32(reps))
	}
	m.startNs.Store(opt.Clock())
	return m
}

// Enabled reports whether the monitor records observations.
func (m *Monitor) Enabled() bool { return m != nil }

// Events returns the monitor's fault-event hub (nil on a nil monitor).
func (m *Monitor) Events() *Events {
	if m == nil {
		return nil
	}
	return m.events
}

// Start marks the pipeline as serving: /readyz turns ready and the uptime
// clock starts.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.startNs.Store(m.clock())
	m.started.Store(true)
}

// Finish marks the stream as complete. The monitor stays ready (the
// pipeline ended, it did not fail); windowed rates decay naturally.
func (m *Monitor) Finish() {
	if m == nil {
		return
	}
	m.finished.Store(true)
}

// SetDraining marks (or clears) a migration drain: the pipeline is
// switching mappings and in-flight data sets are completing on the old
// generation. While draining, /readyz reports 503 even if the pipeline is
// otherwise nominal — a load balancer must not route new work at a
// pipeline mid-switch.
func (m *Monitor) SetDraining(v bool) {
	if m == nil {
		return
	}
	if m.draining.Swap(v) != v {
		kind := "drain-start"
		if !v {
			kind = "drain-end"
		}
		m.events.Publish(Event{TS: m.now(), Kind: kind, Dataset: -1, Detail: "migration drain"})
	}
}

func (m *Monitor) stage(i int) *stageState {
	if m == nil || i < 0 || i >= len(m.stages) {
		return nil
	}
	return &m.stages[i]
}

// now returns seconds since Start, for event timestamps.
func (m *Monitor) now() float64 {
	return float64(m.clock()-m.startNs.Load()) / 1e9
}

// StageDone records one successful attempt of stage i taking the given
// seconds. This is the hot path: two windowed-instrument updates, no
// allocation.
func (m *Monitor) StageDone(i int, seconds float64) {
	s := m.stage(i)
	if s == nil {
		return
	}
	s.done.Inc()
	s.lat.Observe(seconds)
}

// StageRetry records a failed attempt of stage i on dataset that will be
// retried.
func (m *Monitor) StageRetry(i, dataset int) {
	s := m.stage(i)
	if s == nil {
		return
	}
	s.retries.Inc()
	m.events.Publish(Event{TS: m.now(), Kind: "retry", Stage: s.info.Name, Dataset: dataset})
}

// StageTimeout records an attempt of stage i cut off by its deadline.
func (m *Monitor) StageTimeout(i, dataset int) {
	s := m.stage(i)
	if s == nil {
		return
	}
	s.timeouts.Inc()
	m.events.Publish(Event{TS: m.now(), Kind: "timeout", Stage: s.info.Name, Dataset: dataset})
}

// StageDrop records a data set abandoned at stage i after exhausting its
// attempts.
func (m *Monitor) StageDrop(i, dataset int) {
	s := m.stage(i)
	if s == nil {
		return
	}
	s.drops.Inc()
	m.events.Publish(Event{TS: m.now(), Kind: "drop", Stage: s.info.Name, Dataset: dataset})
}

// InstanceDeath records a replica of stage i leaving the rotation.
func (m *Monitor) InstanceDeath(i, dataset int) {
	s := m.stage(i)
	if s == nil {
		return
	}
	s.deaths.Add(1)
	if s.live.Add(-1) < 1 {
		s.live.Store(1) // the runtime never removes the last live instance
	}
	m.events.Publish(Event{TS: m.now(), Kind: "death", Stage: s.info.Name, Dataset: dataset,
		Detail: fmt.Sprintf("%d/%d replicas live", s.live.Load(), s.info.Replicas)})
}

// Completed records one data set leaving the pipeline with its end-to-end
// latency.
func (m *Monitor) Completed(latencySeconds float64) {
	if m == nil {
		return
	}
	m.completed.Inc()
	m.latency.Observe(latencySeconds)
}

// StageHealth is the live state of one stage in the health model.
type StageHealth struct {
	Stage    int    `json:"stage"`
	Name     string `json:"name"`
	Workers  int    `json:"workers"`
	Replicas int    `json:"replicas"`
	// Live is the number of replicas still in rotation.
	Live int `json:"live"`
	// PredictedPeriod is the model's f_i/r_i; ObservedPeriod is the
	// windowed mean attempt latency divided by live replicas — the observed
	// f_i/r_i. When the window holds no samples yet, ObservedPeriod falls
	// back to the prediction.
	PredictedPeriod float64 `json:"predictedPeriod"`
	ObservedPeriod  float64 `json:"observedPeriod"`
	// Rate is the stage's windowed completion rate in data sets per second.
	Rate float64 `json:"rate"`
	// Completed is the cumulative number of successful attempts.
	Completed int64 `json:"completed"`
	// Latency is the windowed per-attempt latency summary.
	Latency WindowStat `json:"latency"`
	// Cumulative fault counters, with windowed rates alongside.
	Retries     int64   `json:"retries"`
	Drops       int64   `json:"drops"`
	Timeouts    int64   `json:"timeouts"`
	Deaths      int64   `json:"deaths"`
	RetryRate   float64 `json:"retryRate"`
	DropRate    float64 `json:"dropRate"`
	TimeoutRate float64 `json:"timeoutRate"`
	// Bottleneck marks the stage with the largest observed period — the
	// stage bounding the pipeline's 1/max_i(f_i/r_i).
	Bottleneck bool `json:"bottleneck"`
}

// Health is the live pipeline health model served at /pipeline.
type Health struct {
	// Status is "nominal" or "degraded". Degraded means the pipeline is
	// still serving but below its nominal capacity: one or more instances
	// died, or data sets are being dropped.
	Status string `json:"status"`
	// Ready reports /readyz semantics: the pipeline has started and is not
	// degraded.
	Ready bool `json:"ready"`
	// Reason explains a not-ready or degraded state.
	Reason string `json:"reason,omitempty"`
	// Draining reports a migration drain in progress: /readyz is 503 while
	// the pipeline switches mapping generations.
	Draining bool `json:"draining,omitempty"`
	Started  bool `json:"started"`
	Finished bool `json:"finished"`
	// UptimeSeconds is time since Start (virtual in replays).
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Mapping       string  `json:"mapping,omitempty"`
	// PredictedThroughput is the model's 1/max_i(f_i/r_i);
	// ObservedThroughput is the windowed completion rate at the sink.
	PredictedThroughput float64 `json:"predictedThroughput"`
	ObservedThroughput  float64 `json:"observedThroughput"`
	PredictedLatency    float64 `json:"predictedLatency"`
	// Latency is the windowed end-to-end latency summary.
	Latency   WindowStat `json:"latency"`
	Completed int64      `json:"completed"`
	Retries   int64      `json:"retries"`
	Drops     int64      `json:"drops"`
	Timeouts  int64      `json:"timeouts"`
	Deaths    int64      `json:"deaths"`
	// PredictedBottleneck and BottleneckStage are the model's and the
	// observed argmax_i(f_i/r_i).
	PredictedBottleneck int           `json:"predictedBottleneck"`
	BottleneckStage     int           `json:"bottleneckStage"`
	Stages              []StageHealth `json:"stages"`
}

// Health computes the current health model. A nil monitor reports a
// disabled, never-ready pipeline.
func (m *Monitor) Health() Health {
	if m == nil {
		return Health{Status: "disabled", Reason: "no monitor attached"}
	}
	h := Health{
		Status:              "nominal",
		Started:             m.started.Load(),
		Finished:            m.finished.Load(),
		UptimeSeconds:       m.now(),
		Mapping:             m.cfg.Mapping,
		PredictedThroughput: m.cfg.PredictedThroughput,
		PredictedLatency:    m.cfg.PredictedLatency,
		ObservedThroughput:  m.completed.Rate(),
		Latency:             m.latency.Window(),
		Completed:           m.completed.Total(),
		Stages:              make([]StageHealth, len(m.stages)),
	}
	predBest := 0.0
	obsBest := 0.0
	var windowDrops int64
	for i := range m.stages {
		s := &m.stages[i]
		lat := s.lat.Window()
		live := int(s.live.Load())
		if live < 1 {
			live = 1
		}
		sh := StageHealth{
			Stage:           i,
			Name:            s.info.Name,
			Workers:         s.info.Workers,
			Replicas:        s.info.Replicas,
			Live:            live,
			PredictedPeriod: s.info.PredictedPeriod,
			Rate:            s.done.Rate(),
			Completed:       s.done.Total(),
			Latency:         lat,
			Retries:         s.retries.Total(),
			Drops:           s.drops.Total(),
			Timeouts:        s.timeouts.Total(),
			Deaths:          s.deaths.Load(),
			RetryRate:       s.retries.Rate(),
			DropRate:        s.drops.Rate(),
			TimeoutRate:     s.timeouts.Rate(),
		}
		if lat.Count > 0 {
			sh.ObservedPeriod = lat.Mean / float64(live)
		} else {
			sh.ObservedPeriod = s.info.PredictedPeriod
		}
		windowDrops += s.drops.WindowSum()
		h.Retries += sh.Retries
		h.Drops += sh.Drops
		h.Timeouts += sh.Timeouts
		h.Deaths += sh.Deaths
		if s.info.PredictedPeriod > predBest {
			predBest = s.info.PredictedPeriod
			h.PredictedBottleneck = i
		}
		if sh.ObservedPeriod > obsBest {
			obsBest = sh.ObservedPeriod
			h.BottleneckStage = i
		}
		h.Stages[i] = sh
	}
	if len(h.Stages) > 0 {
		h.Stages[h.BottleneckStage].Bottleneck = true
	}
	// Deaths degrade permanently (a dead replica never returns); drops
	// degrade only while they keep happening inside the window, so a
	// transient fault heals once the stream recovers.
	switch {
	case h.Deaths > 0:
		h.Status = "degraded"
		h.Reason = fmt.Sprintf("%d instance death(s)", h.Deaths)
	case windowDrops > 0:
		h.Status = "degraded"
		h.Reason = fmt.Sprintf("%d dropped data set(s) in window", windowDrops)
	}
	h.Draining = m.draining.Load()
	h.Ready = h.Started && h.Status == "nominal" && !h.Draining
	if !h.Started {
		h.Reason = "pipeline not started"
	} else if h.Draining && h.Reason == "" {
		h.Reason = "migration drain in progress"
	}
	return h
}

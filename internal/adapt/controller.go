package adapt

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pipemap/internal/estimate"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// Config configures a Controller.
type Config struct {
	// Chain is the believed chain: the cost models the current mapping was
	// solved against. The controller refits a working copy; the original is
	// never mutated.
	Chain *model.Chain
	// Platform is the nominal platform: every re-solve is keyed at it, and
	// instance deaths shrink the processor budget read from that solve.
	Platform model.Platform
	// Initial is the generation-0 mapping in force when the loop starts.
	Initial model.Mapping
	// Threshold is the hysteresis gate: a migration needs a predicted
	// relative throughput gain of at least this much (default 0.10).
	Threshold float64
	// FitWindow and FitCycles configure the per-stage online fitter: the
	// window of retained cycle means (default 8) and the minimum cycles
	// before a refit is trusted (default 2).
	FitWindow int
	FitCycles int
	// TimeScale converts observed runtime seconds to model seconds: the
	// emulation speedup factor when driving fxrt.ModelPipeline (observed
	// seconds × TimeScale = model seconds, observed throughput ÷ TimeScale
	// = model throughput). Default 1.
	TimeScale float64
	// Trace receives one span per controller phase (refit, resolve,
	// migrate) per decision cycle; nil disables.
	Trace *obs.Tracer
	// Metrics receives controller counters and gauges (adapt.* names);
	// nil disables.
	Metrics *live.Registry
	// Flight, when set, records every migrate/rollback decision into the
	// flight recorder so /debug/flightrecorder interleaves controller
	// actions with request traces and sheds; nil disables.
	Flight *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 0.10
	}
	if c.FitWindow <= 0 {
		c.FitWindow = 8
	}
	if c.FitCycles <= 0 {
		c.FitCycles = 2
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	return c
}

const (
	// rollbackTolerance triggers a rollback when the first post-migration
	// observation's throughput falls more than this fraction below the
	// pre-migration observation.
	rollbackTolerance = 0.20
	// minStageSamples gates refitting on the monitor window: a stage's
	// cycle observation is used only when the window holds at least this
	// many latency samples.
	minStageSamples = 5
	// cooldownCycles holds decisions after a rollback so the controller
	// does not oscillate back onto the mapping that just failed.
	cooldownCycles = 3
	// refitEpsilon is the relative dead-band on applying refitted cost
	// corrections: a per-task correction moving less than this is not
	// applied, so the believed cost model stays bit-identical and the
	// solve cache recognizes the tick as unchanged. Corrections gate
	// against the last applied value, so sustained drift still lands.
	refitEpsilon = 1e-3
)

// Decision actions.
const (
	// ActionHold keeps the current mapping.
	ActionHold = "hold"
	// ActionMigrate switches to the candidate mapping.
	ActionMigrate = "migrate"
	// ActionRollback reverts to the pre-migration mapping after the new
	// one underperformed.
	ActionRollback = "rollback"
)

// Decision is the outcome of one controller cycle, JSON-shaped for the
// /pipeline controller payload.
type Decision struct {
	Cycle      int    `json:"cycle"`
	Action     string `json:"action"`
	Reason     string `json:"reason"`
	Generation int    `json:"generation"` // generation in force after the decision
	Mapping    string `json:"mapping"`    // mapping in force after the decision
	Candidate  string `json:"candidate,omitempty"`
	Algorithm  string `json:"algorithm,omitempty"`
	// SolvePath reports how the re-solve was obtained: "memo" (cache hit,
	// no solve), "incremental" (partial DP recompute), "dp" or "greedy"
	// (full solve).
	SolvePath string `json:"solvePath,omitempty"`
	// ChangedTasks is the number of task cost corrections applied this
	// cycle (moves beyond the refit dead-band).
	ChangedTasks int `json:"changedTasks"`
	// ResolveSeconds is the measured decision latency of the re-solve:
	// the canonical hash and the cached solve behind it.
	ResolveSeconds float64 `json:"resolveSeconds"`
	// CurrentPredicted and CandidatePredicted are model throughputs under
	// the refitted models: the current mapping at live replica counts, and
	// the candidate.
	CurrentPredicted   float64 `json:"currentPredicted"`
	CandidatePredicted float64 `json:"candidatePredicted"`
	// PredictedGain is (candidate - current) / current.
	PredictedGain float64 `json:"predictedGain"`
	// ObservedThroughput is the observation's throughput in model units.
	ObservedThroughput float64 `json:"observedThroughput"`
}

// StageRefit is the per-stage refit state surfaced in Status.
type StageRefit struct {
	Stage    int     `json:"stage"`
	Name     string  `json:"name"`
	Ratio    float64 `json:"ratio"`    // observed/predicted correction applied
	RMSE     float64 `json:"rmse"`     // refit residual against the window
	Cycles   int     `json:"cycles"`   // accepted cycle observations
	Rejected int     `json:"rejected"` // outliers rejected
}

// Status is the controller state served under the "controller" key of
// /pipeline.
type Status struct {
	Enabled    bool `json:"enabled"`
	Generation int  `json:"generation"`
	Cycles     int  `json:"cycles"`
	Migrations int  `json:"migrations"`
	Rollbacks  int  `json:"rollbacks"`
	// LostProcs and SurvivingProcs account instance deaths across all
	// generations against the nominal platform.
	LostProcs      int     `json:"lostProcs"`
	SurvivingProcs int     `json:"survivingProcs"`
	Threshold      float64 `json:"threshold"`
	Mapping        string  `json:"mapping"`
	// PredictedThroughput is the current mapping's model throughput under
	// the refitted cost models (model units).
	PredictedThroughput float64 `json:"predictedThroughput"`
	// PredictedGain is the last migration's predicted relative gain;
	// ObservedGain is the measured relative gain of its first
	// post-migration observation (0 until evaluated).
	PredictedGain float64 `json:"predictedGain"`
	ObservedGain  float64 `json:"observedGain"`
	// Refits is the per-stage refit state of the current generation.
	Refits []StageRefit `json:"refits,omitempty"`
	// Memo is the solve cache's effectiveness snapshot.
	Memo *SolveCacheStats `json:"memo,omitempty"`
	// LastDecision is the most recent cycle's decision.
	LastDecision *Decision `json:"lastDecision,omitempty"`
	// Ingest is the most recent observation's ingestion load, when it
	// carried one.
	Ingest *IngestLoad `json:"ingest,omitempty"`
}

// IngestLoad is the ingestion data plane's load evidence attached to an
// observation: the controller records it so operators can correlate
// migrate/hold decisions with real admission pressure.
type IngestLoad struct {
	// QueueDepth and InFlight are point-in-time admission-queue and
	// dispatch occupancy.
	QueueDepth int   `json:"queueDepth"`
	InFlight   int64 `json:"inFlight"`
	// AdmitRate and ShedRate are windowed requests/second at the door.
	AdmitRate float64 `json:"admitRate"`
	ShedRate  float64 `json:"shedRate"`
}

// Observation is one decision's runtime evidence from the serving
// generation.
type Observation struct {
	// Health is the serving generation's live health model.
	Health live.Health
	// Throughput is the serving generation's observed throughput in
	// runtime (wall-clock) units; the controller divides by TimeScale and
	// judges a migration by it. The serving loop passes the capacity
	// 1/max_i StageHealth.ObservedPeriod, which does not fall with the
	// offered load as the sink rate does.
	Throughput float64
	// Ingest, when the generation serves an ingestion plane, carries its
	// load evidence.
	Ingest *IngestLoad
}

// Controller is the closed-loop decision engine. Drive it with Step once
// per decision; it assumes the caller (the serving loop) executes every
// migrate and rollback decision it returns. All methods are safe for concurrent use
// with a running Step (status readers never block the loop for long).
type Controller struct {
	mu  sync.Mutex
	cfg Config

	// Per-task beliefs: base execution models and the last applied and
	// generation-start multiplicative corrections.
	baseExec []model.CostFunc
	ratio    []float64
	genRatio []float64

	// cache memoizes re-solves across Step calls and routes small cost
	// updates to the incremental DP solver.
	cache *SolveCache

	cur     model.Mapping // current mapping (Chain = refitted beliefs)
	gen     int
	fitters []*estimate.OnlineFitter
	refits  []StageRefit
	deaths  []int64 // per-stage deaths already accounted this generation
	lost    int     // processors lost across all generations

	cycles     int
	migrations int
	rollbacks  int

	// Rollback bookkeeping.
	prevMapping  model.Mapping
	preObserved  float64
	evalPending  bool
	cooldown     int
	vetoed       string
	predGain     float64
	obsGain      float64
	lastDecision *Decision
	lastIngest   *IngestLoad
}

// NewController validates the configuration and returns a controller at
// generation 0 on the initial mapping.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Chain == nil {
		return nil, fmt.Errorf("adapt: config has no chain")
	}
	if err := cfg.Chain.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Initial.Validate(cfg.Platform); err != nil {
		return nil, fmt.Errorf("adapt: initial mapping: %w", err)
	}
	c := &Controller{
		cfg:      cfg,
		baseExec: make([]model.CostFunc, cfg.Chain.Len()),
		ratio:    make([]float64, cfg.Chain.Len()),
		genRatio: make([]float64, cfg.Chain.Len()),
		cache:    NewSolveCache(),
	}
	c.cache.trace, c.cache.metrics, c.cache.onDemand = cfg.Trace, cfg.Metrics, true
	for i := range c.baseExec {
		c.baseExec[i] = cfg.Chain.Tasks[i].Exec
		c.ratio[i] = 1
		c.genRatio[i] = 1
	}
	c.installMapping(cfg.Initial.Modules)
	return c, nil
}

// beliefChain materializes the current beliefs: the configured chain with
// every task's execution model scaled by its learned correction.
func (c *Controller) beliefChain() *model.Chain {
	tasks := append([]model.Task(nil), c.cfg.Chain.Tasks...)
	for i := range tasks {
		if c.ratio[i] != 1 {
			tasks[i].Exec = model.ScaleCost{F: c.baseExec[i], K: c.ratio[i]}
		} else {
			tasks[i].Exec = c.baseExec[i]
		}
	}
	return &model.Chain{Tasks: tasks, ICom: c.cfg.Chain.ICom, ECom: c.cfg.Chain.ECom}
}

// installMapping makes modules the current mapping, snapshots the beliefs
// as the generation baseline, and rebuilds the per-stage fitters against
// them.
func (c *Controller) installMapping(modules []model.Module) {
	copy(c.genRatio, c.ratio)
	chain := c.beliefChain()
	c.cur = model.Mapping{Chain: chain, Modules: append([]model.Module(nil), modules...)}
	c.deaths = make([]int64, len(modules))
	c.fitters = make([]*estimate.OnlineFitter, len(modules))
	c.refits = make([]StageRefit, len(modules))
	for i := range modules {
		mod := modules[i]
		prior := c.moduleResponse(chain, modules, i)
		c.fitters[i] = estimate.NewOnlineFitter(prior, mod.Procs, estimate.OnlineOptions{
			Window:     c.cfg.FitWindow,
			MinSamples: c.cfg.FitCycles,
		})
		c.refits[i] = StageRefit{Stage: i, Name: chain.TaskNames(mod.Lo, mod.Hi), Ratio: 1}
	}
}

// moduleResponse returns stage i's response time as a function of its own
// per-instance processor count, with the neighbouring modules' counts
// frozen at the current mapping: the prior an online fitter refits
// against. It mirrors Mapping.ResponseTimes (exec plus both edge
// transfers), which is exactly what the runtime observes per attempt.
func (c *Controller) moduleResponse(chain *model.Chain, modules []model.Module, i int) model.CostFunc {
	mod := modules[i]
	exec := chain.ModuleExec(mod.Lo, mod.Hi)
	var prevProcs, nextProcs int
	if i > 0 {
		prevProcs = modules[i-1].Procs
	}
	if i < len(modules)-1 {
		nextProcs = modules[i+1].Procs
	}
	ecom := chain.ECom
	lo, hi := mod.Lo, mod.Hi
	return model.CostFuncOf(func(p int) float64 {
		f := exec.Eval(p)
		if prevProcs > 0 {
			f += ecom[lo-1].Eval(prevProcs, p)
		}
		if nextProcs > 0 {
			f += ecom[hi-1].Eval(p, nextProcs)
		}
		return f
	})
}

// Generation returns the current mapping generation (0 before any
// migration).
func (c *Controller) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Mapping returns the mapping currently in force; its Chain carries the
// refitted beliefs, so monitor configs derived from it predict what the
// controller currently expects.
func (c *Controller) Mapping() model.Mapping {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// Platform returns the surviving platform: the nominal platform minus the
// processors lost to instance deaths across all generations.
func (c *Controller) Platform() model.Platform {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.survivingLocked()
}

func (c *Controller) survivingLocked() model.Platform {
	pl := c.cfg.Platform
	pl.Procs -= c.lost
	return pl
}

// Status snapshots the controller state for /pipeline.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:             true,
		Generation:          c.gen,
		Cycles:              c.cycles,
		Migrations:          c.migrations,
		Rollbacks:           c.rollbacks,
		LostProcs:           c.lost,
		SurvivingProcs:      c.cfg.Platform.Procs - c.lost,
		Threshold:           c.cfg.Threshold,
		Mapping:             c.cur.String(),
		PredictedThroughput: c.cur.Throughput(),
		PredictedGain:       c.predGain,
		ObservedGain:        c.obsGain,
		Refits:              append([]StageRefit(nil), c.refits...),
	}
	memo := c.cache.Stats()
	st.Memo = &memo
	if c.lastDecision != nil {
		d := *c.lastDecision
		st.LastDecision = &d
	}
	if c.lastIngest != nil {
		l := *c.lastIngest
		st.Ingest = &l
	}
	return st
}

// Step ingests one observation and decides: hold, migrate, or roll back.
// The caller must execute migrate/rollback decisions (rebuild the data
// plane on Mapping()) before the next Step.
func (c *Controller) Step(o Observation) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	c.cycles++
	d := Decision{
		Cycle:              c.cycles,
		Action:             ActionHold,
		Generation:         c.gen,
		ObservedThroughput: o.Throughput / c.cfg.TimeScale,
	}

	if o.Ingest != nil {
		l := *o.Ingest
		c.lastIngest = &l
	}
	c.ingestDeaths(o.Health)
	c.ingestLatencies(o.Health)
	d.ChangedTasks = c.applyRefits()

	// Re-solve on the refitted beliefs for the surviving processors,
	// through the memo cache keyed at the nominal platform: an unchanged
	// tick is a cache hit, a few moved costs route to the incremental DP,
	// and a processor loss reads the nominal table's per-budget frontier.
	// The current mapping is re-anchored on the same beliefs so its
	// predicted throughput (status, monitor config) tracks what the
	// controller now believes, not the stale generation-start models.
	chain := c.beliefChain()
	c.cur.Chain = chain
	resolveStart := time.Now()
	sig, key := CanonicalKeys(chain, c.cfg.Platform)
	cand, path, err := c.cache.Solve(chain, c.cfg.Platform, sig, key, c.survivingLocked().Procs)
	d.SolvePath = path
	d.ResolveSeconds = time.Since(resolveStart).Seconds()
	c.cfg.Metrics.Histogram("adapt.resolve_seconds").Observe(d.ResolveSeconds)
	c.cache.Publish(c.cfg.Metrics)
	if err != nil {
		d.Reason = fmt.Sprintf("re-solve failed: %v", err)
		c.finishCycle(&d, start)
		return d
	}
	d.Candidate = cand.Mapping.String()
	d.Algorithm = cand.Algorithm.String()
	d.CandidatePredicted = cand.Throughput
	d.CurrentPredicted = c.currentEffective(chain, o.Health)
	if d.CurrentPredicted > 0 {
		d.PredictedGain = (d.CandidatePredicted - d.CurrentPredicted) / d.CurrentPredicted
	}

	switch {
	case c.evalPending:
		c.decideEvaluation(&d)
	case c.cooldown > 0:
		c.cooldown--
		d.Reason = fmt.Sprintf("cooldown after rollback (%d cycles left)", c.cooldown)
	case d.Candidate == c.vetoed:
		d.Reason = "candidate was rolled back; vetoed"
	case d.Candidate == c.cur.String():
		d.Reason = "current mapping is (still) the best known"
	case d.PredictedGain < c.cfg.Threshold:
		d.Reason = fmt.Sprintf("predicted gain %.1f%% below %.1f%% threshold",
			100*d.PredictedGain, 100*c.cfg.Threshold)
	default:
		c.migrate(&d, cand.Mapping.Modules, ActionMigrate,
			fmt.Sprintf("predicted gain %.1f%% clears %.1f%% threshold",
				100*d.PredictedGain, 100*c.cfg.Threshold))
		c.predGain = d.PredictedGain
		c.preObserved = d.ObservedThroughput
		c.evalPending = true
	}
	c.finishCycle(&d, start)
	return d
}

// decideEvaluation judges the first post-migration observation: keep the
// new mapping or roll back to the previous one.
func (c *Controller) decideEvaluation(d *Decision) {
	post := d.ObservedThroughput
	c.evalPending = false
	if c.preObserved > 0 {
		c.obsGain = (post - c.preObserved) / c.preObserved
		c.cfg.Metrics.Gauge("adapt.observed_gain").Set(c.obsGain)
	}
	if c.preObserved > 0 && post < c.preObserved*(1-rollbackTolerance) {
		prev := c.prevMapping
		if prev.Chain == nil || prev.TotalProcs() > c.survivingLocked().Procs {
			d.Reason = fmt.Sprintf("observed %.4f/s regressed %.1f%% but previous mapping no longer fits; holding",
				post, -100*c.obsGain)
			return
		}
		c.vetoed = c.cur.String()
		c.cooldown = cooldownCycles
		c.migrate(d, prev.Modules, ActionRollback,
			fmt.Sprintf("observed %.4f/s vs %.4f/s pre-migration (%.1f%% regression > %.0f%% tolerance)",
				post, c.preObserved, -100*c.obsGain, 100*rollbackTolerance))
		c.rollbacks++
		c.cfg.Metrics.Counter("adapt.rollbacks").Inc()
		return
	}
	d.Reason = fmt.Sprintf("migration evaluated: observed %.4f/s vs %.4f/s pre-migration; keeping",
		post, c.preObserved)
}

// migrate switches the controller onto modules and tags the decision.
func (c *Controller) migrate(d *Decision, modules []model.Module, action, reason string) {
	prev := c.cur
	c.installMapping(modules)
	c.prevMapping = prev
	c.gen++
	c.migrations++
	d.Action = action
	d.Reason = reason
	d.Generation = c.gen
	c.cfg.Metrics.Counter("adapt.migrations").Inc()
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.InstantArgs("adapt", action, 0, time.Now(), map[string]any{
			"generation": c.gen, "mapping": c.cur.String(), "reason": reason,
		})
	}
	c.cfg.Flight.Record(&obs.FlightEntry{
		Kind:    obs.FlightAdapt,
		Time:    time.Now(),
		Outcome: action,
		Detail:  fmt.Sprintf("gen %d -> %s: %s", c.gen, c.cur.String(), reason),
	})
}

// ingestDeaths accounts new instance deaths against the surviving
// processor budget. Each death of stage i costs the *current generation's*
// per-instance processor count of that stage — accounting against any
// other generation's mapping is exactly the drift Remap agreement tests
// guard against. Per generation a stage can lose at most Replicas-1
// instances, because the runtime never removes a stage's last live one, so
// the count is clamped there.
func (c *Controller) ingestDeaths(h live.Health) {
	n := len(h.Stages)
	if n > len(c.cur.Modules) {
		n = len(c.cur.Modules)
	}
	for i := 0; i < n; i++ {
		seen := h.Stages[i].Deaths
		if max := int64(c.cur.Modules[i].Replicas - 1); seen > max {
			seen = max
		}
		if delta := seen - c.deaths[i]; delta > 0 {
			c.lost += int(delta) * c.cur.Modules[i].Procs
			c.deaths[i] = seen
		}
	}
	if max := c.cfg.Platform.Procs - 1; c.lost > max {
		c.lost = max // never remap onto zero processors
	}
	c.cfg.Metrics.Gauge("adapt.lost_procs").Set(float64(c.lost))
}

// ingestLatencies feeds each stage's windowed mean service time (converted
// to model seconds) into its online fitter, gated on the monitor window
// holding enough samples.
func (c *Controller) ingestLatencies(h live.Health) {
	n := len(h.Stages)
	if n > len(c.fitters) {
		n = len(c.fitters)
	}
	for i := 0; i < n; i++ {
		lat := h.Stages[i].Latency
		if lat.Count >= minStageSamples && lat.Mean > 0 {
			c.fitters[i].Observe(lat.Mean * c.cfg.TimeScale)
		}
	}
}

// cycleRatioClamp bounds one generation's learned correction so a burst of
// garbage observations cannot blow the models up beyond recovery.
const cycleRatioClamp = 50.0

// applyRefits refits every stage with enough evidence and folds the
// corrections into the per-task ratios. A correction lands only when it is
// finite and moves beyond the refitEpsilon dead-band around the task's
// last applied ratio; smaller moves are dropped, so the believed chain
// stays bit-identical and the solve cache recognizes the tick. Returns the
// number of tasks whose ratio moved.
func (c *Controller) applyRefits() int {
	moved := 0
	start := time.Now()
	maxProcs := c.cfg.Platform.Procs
	for i, fit := range c.fitters {
		r, err := fit.Refit(maxProcs)
		if err != nil {
			continue // gated or degenerate: keep current beliefs
		}
		c.refits[i].RMSE = r.Stats.RMSE
		c.refits[i].Cycles = r.Samples
		c.refits[i].Rejected = r.Rejected
		if r.Ratio <= 0 {
			continue // prior predicted nothing; cannot scale task models
		}
		ratio := math.Min(math.Max(r.Ratio, 1/cycleRatioClamp), cycleRatioClamp)
		c.refits[i].Ratio = ratio
		mod := c.cur.Modules[i]
		for t := mod.Lo; t < mod.Hi; t++ {
			next, cur := c.genRatio[t]*ratio, c.ratio[t]
			if math.IsNaN(next) || math.IsInf(next, 0) ||
				math.Abs(next-cur) <= refitEpsilon*math.Max(1, math.Abs(cur)) {
				continue
			}
			c.ratio[t] = next
			moved++
		}
	}
	if moved > 0 && c.cfg.Trace.Enabled() {
		c.cfg.Trace.SpanArgs("adapt", "refit", 0, start, time.Since(start), nil)
	}
	return moved
}

// currentEffective predicts the current mapping's throughput under the
// refitted beliefs at the *live* replica counts, so a mapping running
// degraded (dead instances) is compared honestly against candidates.
func (c *Controller) currentEffective(chain *model.Chain, h live.Health) float64 {
	modules := append([]model.Module(nil), c.cur.Modules...)
	n := len(h.Stages)
	if n > len(modules) {
		n = len(modules)
	}
	for i := 0; i < n; i++ {
		if live := h.Stages[i].Live; live >= 1 && live < modules[i].Replicas {
			modules[i].Replicas = live
		}
	}
	m := model.Mapping{Chain: chain, Modules: modules}
	return m.Throughput()
}

// finishCycle records the decision and cycle-level instrumentation.
func (c *Controller) finishCycle(d *Decision, start time.Time) {
	d.Mapping = c.cur.String()
	copyD := *d
	c.lastDecision = &copyD
	c.cfg.Metrics.Counter("adapt.cycles").Inc()
	c.cfg.Metrics.Gauge("adapt.generation").Set(float64(c.gen))
	c.cfg.Metrics.Gauge("adapt.predicted_gain").Set(d.PredictedGain)
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.SpanArgs("adapt", "cycle", 0, start, time.Since(start), map[string]any{
			"cycle": d.Cycle, "action": d.Action, "generation": d.Generation,
			"gain": d.PredictedGain, "reason": d.Reason,
		})
	}
}

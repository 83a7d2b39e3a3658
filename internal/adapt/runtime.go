package adapt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pipemap/internal/fxrt"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// GenerationStats tags one mapping generation's observed execution.
type GenerationStats struct {
	Generation int    `json:"generation"`
	Mapping    string `json:"mapping"`
	// Rollback marks a generation entered by rolling back.
	Rollback bool `json:"rollback"`
	// DataSets and Throughput are the generation's streamed count and its
	// observed sink throughput in runtime units (mean over its segments
	// with a throughput window).
	DataSets   int     `json:"dataSets"`
	Throughput float64 `json:"throughput"`
	segments   int
	tputSum    float64
}

// RunStats summarizes one Runtime.Run.
type RunStats struct {
	DataSets    int
	Generations []GenerationStats
	// Migrations and Rollbacks mirror the controller's counters for the
	// run.
	Migrations int
	Rollbacks  int
}

// Runtime executes the closed loop on the fxrt runtime.
// The stream is processed in bounded segments: each segment runs on the
// current generation's pipeline, and the segment boundary is the migration
// drain point — Run returns only after every in-flight data set of the
// segment completes, so a switch never strands more than SegmentSize data
// sets. Between segments the controller observes the segment's health and
// decides; migrate/rollback decisions swap in a freshly built pipeline and
// monitor for the new mapping generation. The previously served monitor is
// flagged as draining for the duration of the swap, which /readyz reports
// as 503.
type Runtime struct {
	// Controller makes the decisions; required.
	Controller *Controller
	// Factory builds the data plane for a mapping generation; required.
	// Runtime attaches the generation's live monitor to the returned
	// pipeline.
	Factory func(m model.Mapping, gen int) (*fxrt.Pipeline, error)
	// MonitorConfig derives the live-monitor config for a mapping; nil
	// uses live.ConfigFromMapping. Wrap it to Scale by the emulation
	// speedup.
	MonitorConfig func(m model.Mapping) live.Config
	// Source produces data set i of the overall stream; nil streams ints.
	Source func(i int) fxrt.DataSet
	// SegmentSize bounds the data sets per segment — the in-flight bound
	// of a migration drain (default 64).
	SegmentSize int
	// OnSegment, when set, observes every segment boundary (logging).
	OnSegment func(gen, segment int, stats fxrt.Stats, d Decision)

	mon atomic.Pointer[live.Monitor]

	mu   sync.Mutex
	gens []GenerationStats
}

// Monitor returns the monitor of the generation currently serving; wire it
// as live.ServerOptions.Source so the observability server follows
// migrations.
func (rt *Runtime) Monitor() *live.Monitor { return rt.mon.Load() }

// Generations snapshots the per-generation stats collected so far.
func (rt *Runtime) Generations() []GenerationStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]GenerationStats(nil), rt.gens...)
}

func (rt *Runtime) monitorConfig(m model.Mapping) live.Config {
	if rt.MonitorConfig != nil {
		return rt.MonitorConfig(m)
	}
	return live.ConfigFromMapping(m)
}

// build constructs the pipeline and monitor of one generation.
func (rt *Runtime) build(m model.Mapping, gen int) (*fxrt.Pipeline, *live.Monitor, error) {
	pl, err := rt.Factory(m, gen)
	if err != nil {
		return nil, nil, fmt.Errorf("adapt: building generation %d: %w", gen, err)
	}
	mon := live.NewMonitor(rt.monitorConfig(m))
	pl.Monitor = mon
	return pl, mon, nil
}

// record folds one segment's stats into the generation ledger.
func (rt *Runtime) record(gen int, m model.Mapping, rollback bool, n int, tput float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.gens) == 0 || rt.gens[len(rt.gens)-1].Generation != gen {
		rt.gens = append(rt.gens, GenerationStats{Generation: gen, Mapping: m.String(), Rollback: rollback})
	}
	g := &rt.gens[len(rt.gens)-1]
	g.DataSets += n
	if tput > 0 {
		g.tputSum += tput
		g.segments++
		g.Throughput = g.tputSum / float64(g.segments)
	}
}

// Run streams total data sets through the adaptive loop.
func (rt *Runtime) Run(total int) (RunStats, error) {
	if rt.Controller == nil || rt.Factory == nil {
		return RunStats{}, fmt.Errorf("adapt: runtime needs a Controller and a Factory")
	}
	if total <= 0 {
		return RunStats{}, fmt.Errorf("adapt: need at least one data set")
	}
	segSize := rt.SegmentSize
	if segSize <= 0 {
		segSize = 64
	}
	source := rt.Source
	if source == nil {
		source = func(i int) fxrt.DataSet { return i }
	}

	m := rt.Controller.Mapping()
	gen := rt.Controller.Generation()
	pl, mon, err := rt.build(m, gen)
	if err != nil {
		return RunStats{}, err
	}
	rt.mon.Store(mon)

	rollback := false
	streamed := 0
	segment := 0
	for streamed < total {
		n := segSize
		if rem := total - streamed; rem < n {
			n = rem
		}
		base := streamed
		stats, err := pl.Run(func(i int) fxrt.DataSet { return source(base + i) }, n, 0)
		if err != nil {
			return RunStats{}, fmt.Errorf("adapt: generation %d segment %d: %w", gen, segment, err)
		}
		streamed += n
		segment++
		rt.record(gen, m, rollback, n, stats.Throughput)

		d := rt.Controller.Step(Observation{Health: mon.Health(), Throughput: stats.Throughput})
		if rt.OnSegment != nil {
			rt.OnSegment(gen, segment, stats, d)
		}
		if d.Action == ActionMigrate || d.Action == ActionRollback {
			// The segment boundary already drained the old generation's
			// in-flight data sets; flag the serving monitor while the new
			// data plane is built so readiness reflects the switch window.
			mon.SetDraining(true)
			newM := rt.Controller.Mapping()
			newGen := rt.Controller.Generation()
			npl, nmon, err := rt.build(newM, newGen)
			if err != nil {
				mon.SetDraining(false)
				return RunStats{}, err
			}
			rt.mon.Store(nmon)
			mon.SetDraining(false)
			mon.Finish()
			pl, mon, m, gen = npl, nmon, newM, newGen
			rollback = d.Action == ActionRollback
		}
	}
	st := rt.Controller.Status()
	return RunStats{
		DataSets:    streamed,
		Generations: rt.Generations(),
		Migrations:  st.Migrations,
		Rollbacks:   st.Rollbacks,
	}, nil
}

package fxrt

import (
	"fmt"
	"time"

	"pipemap/internal/model"
)

// ModelPipeline builds a runnable pipeline that emulates a solved mapping:
// one stage per module, replicated as the mapping prescribes, whose work
// function sleeps for the module's predicted response time f_i divided by
// speedup. Replication is what makes the
// emulation interesting — the live observed period of stage i converges to
// f_i/(speedup·r_i), so the bottleneck structure of the mapping reproduces
// in the served health model, and killing a replica visibly degrades it.
//
// Each stage runs with Workers=1: the emulation spends the module's
// response time as wall-clock sleep rather than spreading real work over
// mod.Procs workers, so the mapping's per-instance processor counts are
// carried in the monitor's StageInfo, not in goroutine counts.
//
// The sleep is the package's sleeper, not time.Sleep, whose waits under
// 1 ms return after about 1.09 ms in an idle process. On Linux one timer
// thread with 1 ns timer slack releases each sleep once its deadline has
// passed, never before: on a 2-vCPU host a lone 250 µs sleep returns
// after a median of about 280 µs. Elsewhere the sleep is time.Sleep,
// floor included, so stages shorter than about a millisecond run slower
// than the model says.
//
// speedup <= 0 defaults to 1 (real time). Use a large speedup to compress
// slow mappings into fast demo/CI runs without changing the relative stage
// periods.
func ModelPipeline(m model.Mapping, speedup float64) (*Pipeline, error) {
	return ModelPipelineOn(m, m.Chain, speedup)
}

// ModelPipelineOn is ModelPipeline with the emulated ground truth decoupled
// from the mapping's belief: stage sleeps are the response times of
// m.Modules evaluated against the truth chain. A truth chain whose costs
// differ from m.Chain emulates a pipeline solved under a wrong cost model —
// the scenario an adaptive controller exists to correct. truth == nil uses
// m.Chain (beliefs are true). Stages sleep as in ModelPipeline.
func ModelPipelineOn(m model.Mapping, truth *model.Chain, speedup float64) (*Pipeline, error) {
	if m.Chain == nil || len(m.Modules) == 0 {
		return nil, fmt.Errorf("fxrt: model pipeline needs a solved mapping")
	}
	if truth == nil {
		truth = m.Chain
	}
	if speedup <= 0 {
		speedup = 1
	}
	tm := model.Mapping{Chain: truth, Modules: m.Modules}
	resp := tm.ResponseTimes()
	stages := make([]Stage, len(m.Modules))
	for i, mod := range m.Modules {
		d := time.Duration(resp[i] / speedup * float64(time.Second))
		stages[i] = Stage{
			Name:     m.Chain.TaskNames(mod.Lo, mod.Hi),
			Workers:  1,
			Replicas: mod.Replicas,
			Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
				sleep(d)
				return in, nil
			},
		}
	}
	return &Pipeline{Stages: stages}, nil
}

package apps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pipemap/internal/estimate"
	"pipemap/internal/fxrt"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
)

// RadarRunner executes the narrowband tracking radar pipeline for real on
// the fxrt runtime: matched filtering, Doppler processing and CFAR
// detection with the kernels package, plus a stateful track-update stage.
// The pipeline structure comes from a mapping of the 4-task radar chain.
type RadarRunner struct {
	// Pulses and Gates give the coherent-interval cube shape (powers of
	// two; defaults 16 x 256).
	Pulses, Gates int
	// DataSets is the stream length per run (default 12).
	DataSets int
	// TargetGate and TargetDoppler locate the synthetic target injected
	// into every data set (defaults gates/4 and 3).
	TargetGate, TargetDoppler int
}

// RadarData flows between the radar stages.
type RadarData struct {
	// Cube is the pulses x gates coherent-interval sample cube, mutated in
	// place as it flows through the stages.
	Cube kernels.Matrix
	// Dets are the CFAR detections gathered after the cfar task.
	Dets []kernels.Detection

	// spare is the cube-sized buffer the corner turn copies Cube into
	// before the two swap; allocated by the first corner turn.
	spare kernels.Matrix
	// kept marks a data set a stage attempt under a deadline has touched:
	// an abandoned attempt may still be writing into its cubes, so they
	// are never recycled.
	kept atomic.Bool
}

// release returns both cubes to the pool. RadarCodec.Encode calls it as
// the data set's last reader on the serving path.
func (rd *RadarData) release() {
	if rd.kept.Load() {
		return
	}
	putMatrix(rd.Cube)
	putMatrix(rd.spare)
	rd.Cube, rd.spare = kernels.Matrix{}, kernels.Matrix{}
}

// Radar op names for recorded measurements.
const (
	opPulseComp  = "exec:pulsecomp"
	opDoppler    = "exec:doppler"
	opCFAR       = "exec:cfar"
	opTrack      = "exec:track"
	opCornerTurn = "edge:cornerturn"
	opDetGather  = "edge:detgather"
)

func (r RadarRunner) dims() (pulses, gates int) {
	pulses, gates = r.Pulses, r.Gates
	if pulses == 0 {
		pulses = 16
	}
	if gates == 0 {
		gates = 256
	}
	return pulses, gates
}

// Pipeline builds the fxrt pipeline realizing a mapping of the radar
// chain (pulsecomp, doppler, cfar, track). The returned map accumulates
// per-cell track hit counts as data sets flow.
func (r RadarRunner) Pipeline(m model.Mapping) (*fxrt.Pipeline, map[[2]int]int, error) {
	pulses, gates := r.dims()
	if pulses&(pulses-1) != 0 || gates&(gates-1) != 0 {
		return nil, nil, fmt.Errorf("apps: radar cube %dx%d must have power-of-two dimensions", pulses, gates)
	}
	if m.Chain == nil || m.Chain.Len() != 4 {
		return nil, nil, fmt.Errorf("apps: mapping does not cover the 4-task radar chain")
	}
	chirpFreq, err := r.chirpFreq()
	if err != nil {
		return nil, nil, err
	}
	// Track state is shared by the (single, non-replicable) track stage.
	var trackMu sync.Mutex
	tracks := map[[2]int]int{} // (doppler, gate) -> hit count

	var stages []fxrt.Stage
	for _, mod := range m.Modules {
		mod := mod
		stages = append(stages, fxrt.Stage{
			Name:     m.Chain.TaskNames(mod.Lo, mod.Hi),
			Workers:  mod.Procs,
			Replicas: mod.Replicas,
			Run: func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
				rd, ok := in.(*RadarData)
				if !ok {
					return nil, fmt.Errorf("apps: radar stage expects RadarData")
				}
				if ctx.Deadline > 0 {
					rd.kept.Store(true)
				}
				for t := mod.Lo; t < mod.Hi; t++ {
					if err := r.runTask(ctx, t, rd, chirpFreq, &trackMu, tracks); err != nil {
						return nil, err
					}
				}
				return rd, nil
			},
		})
	}
	return &fxrt.Pipeline{Stages: stages}, tracks, nil
}

func (r RadarRunner) runTask(ctx *fxrt.StageCtx, task int, rd *RadarData,
	chirpFreq []complex128, trackMu *sync.Mutex, tracks map[[2]int]int) error {
	pulses, gates := r.dims()
	switch task {
	case 0: // pulse compression over rows (pulses)
		return ctx.Rec.Time(opPulseComp, func() error {
			return ctx.Group.ParallelFor(pulses, func(r0, r1 int) error {
				return kernels.MatchedFilter(rd.Cube, chirpFreq, r0, r1)
			})
		})
	case 1: // corner turn (redistribution) then Doppler FFT over columns
		err := ctx.Rec.Time(opCornerTurn, func() error {
			if len(rd.spare.Data) != pulses*gates {
				rd.spare = getMatrix(pulses, gates)
			}
			dst := rd.spare
			err := ctx.Group.ParallelFor(pulses, func(r0, r1 int) error {
				copy(dst.Data[r0*gates:r1*gates], rd.Cube.Data[r0*gates:r1*gates])
				return nil
			})
			rd.Cube, rd.spare = dst, rd.Cube
			return err
		})
		if err != nil {
			return err
		}
		return ctx.Rec.Time(opDoppler, func() error {
			return ctx.Group.ParallelFor(gates, func(c0, c1 int) error {
				return kernels.DopplerFFT(rd.Cube, c0, c1)
			})
		})
	case 2: // magnitude + CFAR over Doppler rows
		w := ctx.Group.Workers()
		parts := make([][]kernels.Detection, w)
		err := ctx.Rec.Time(opCFAR, func() error {
			return ctx.Group.ParallelFor(w, func(i0, i1 int) error {
				for i := i0; i < i1; i++ {
					r0, r1 := fxrt.BlockRange(pulses, w, i)
					if r0 >= r1 {
						continue
					}
					kernels.PowerRows(rd.Cube, r0, r1)
					parts[i] = kernels.CFAR(rd.Cube, 2, 8, 12, r0, r1)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		return ctx.Rec.Time(opDetGather, func() error {
			rd.Dets = rd.Dets[:0]
			for _, p := range parts {
				rd.Dets = append(rd.Dets, p...)
			}
			return nil
		})
	case 3: // track update (stateful, serialized)
		return ctx.Rec.Time(opTrack, func() error {
			trackMu.Lock()
			defer trackMu.Unlock()
			for _, d := range rd.Dets {
				tracks[[2]int{d.Doppler, d.Range}]++
			}
			return nil
		})
	default:
		return fmt.Errorf("apps: radar task index %d out of range", task)
	}
}

// chirpFreq synthesizes the frequency-domain matched-filter reference: a
// 16-tap quadratic-phase chirp zero-padded to the range gates, FFT'd in
// place.
func (r RadarRunner) chirpFreq() ([]complex128, error) {
	_, gates := r.dims()
	chirp := make([]complex128, gates)
	copy(chirp, radarChirp[:])
	if err := kernels.FFT(chirp); err != nil {
		return nil, err
	}
	return chirp, nil
}

// radarChirp holds the time-domain taps of the synthetic chirp.
var radarChirp = func() (taps [16]complex128) {
	for j := range taps {
		phase := 0.08 * float64(j*j)
		taps[j] = complex(math.Cos(phase), math.Sin(phase))
	}
	return taps
}()

// Run executes the mapping on the runtime, returning the measured
// statistics and the accumulated track hit counts keyed by
// (doppler, range gate).
func (r RadarRunner) Run(m model.Mapping) (fxrt.Stats, map[[2]int]int, error) {
	p, tracks, err := r.Pipeline(m)
	if err != nil {
		return fxrt.Stats{}, nil, err
	}
	n := r.DataSets
	if n <= 0 {
		n = 12
	}
	stats, err := p.Run(func(i int) fxrt.DataSet {
		return r.input(i)
	}, n, 0)
	return stats, tracks, err
}

// target resolves the synthetic target cell, applying defaults.
func (r RadarRunner) target() (gate, doppler int) {
	_, gates := r.dims()
	gate, doppler = r.TargetGate, r.TargetDoppler
	if gate == 0 {
		gate = gates / 4
	}
	if doppler == 0 {
		doppler = 3
	}
	return gate, doppler
}

// input synthesizes the i-th coherent-interval cube: deterministic
// low-level clutter plus the target echo at the runner's target cell.
func (r RadarRunner) input(i int) *RadarData {
	tg, td := r.target()
	return r.inputAt(i, tg, td)
}

// inputAt synthesizes a cube with the target at (gate tg, doppler td).
// Cell idx (row-major) holds the clutter 0.02*sin(idx+i), computed as
// 0.02*(sin(idx)cos(i) + cos(idx)sin(i)) from a cached table of
// sin(idx), cos(idx): within 2e-17 of 0.02*math.Sin(float64(idx+i))
// whenever idx+i is exact in a float64. For |i| >= 2^53, where float64(i)
// rounds, the rotation by the rounded seed defines the clutter, and
// neighbouring cells stay distinct.
func (r RadarRunner) inputAt(i, tg, td int) *RadarData {
	pulses, gates := r.dims()
	cube := getMatrix(pulses, gates)
	tab := clutterTable(len(cube.Data))
	sin, cos := math.Sincos(float64(i))
	data := cube.Data[:len(tab)]
	for idx, t := range tab {
		data[idx] = complex(0.02*(t.sin*cos+t.cos*sin), 0)
	}
	for pu := 0; pu < pulses; pu++ {
		ph := 2 * math.Pi * float64(td) * float64(pu) / float64(pulses)
		rot := complex(math.Cos(ph), math.Sin(ph))
		for j := 0; j < len(radarChirp) && tg+j < gates; j++ {
			cube.Set(pu, tg+j, cube.At(pu, tg+j)+radarChirp[j]*rot*complex(2, 0))
		}
	}
	return &RadarData{Cube: cube}
}

// clutterTables caches sin(idx), cos(idx) per cube size.
var clutterTables sync.Map // int -> []sincos

type sincos struct{ sin, cos float64 }

// clutterTable returns sin(idx), cos(idx) for idx in [0, n), computing
// them once per n on first use. Callers must not modify it.
func clutterTable(n int) []sincos {
	if t, ok := clutterTables.Load(n); ok {
		return t.([]sincos)
	}
	tab := make([]sincos, n)
	for idx := range tab {
		tab[idx].sin, tab[idx].cos = math.Sincos(float64(idx))
	}
	t, _ := clutterTables.LoadOrStore(n, tab)
	return t.([]sincos)
}

var _ estimate.Profiler = RadarRunner{}

// Profile implements estimate.Profiler with real measured op times.
func (r RadarRunner) Profile(m model.Mapping) (estimate.Measurement, error) {
	stats, _, err := r.Run(m)
	if err != nil {
		return estimate.Measurement{}, err
	}
	ops := stats.Ops
	return estimate.Measurement{
		TaskExec: []float64{ops[opPulseComp], ops[opDoppler], ops[opCFAR], ops[opTrack]},
		EdgeComm: []float64{ops[opCornerTurn], 0, ops[opDetGather]},
	}, nil
}

// RadarStructure returns the 4-task chain structure for fitting real
// radar profiles.
func RadarStructure() *model.Chain {
	base := Radar()
	c := &model.Chain{
		Tasks: make([]model.Task, 4),
		ICom:  []model.CostFunc{model.ZeroExec(), model.ZeroExec(), model.ZeroExec()},
		ECom:  []model.CommFunc{model.ZeroComm(), model.ZeroComm(), model.ZeroComm()},
	}
	for i := range c.Tasks {
		c.Tasks[i] = base.Tasks[i]
		c.Tasks[i].Exec = model.ZeroExec()
		c.Tasks[i].Mem = model.Memory{} // real runs are not memory bound
	}
	return c
}

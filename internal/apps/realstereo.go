package apps

import (
	"fmt"
	"math"

	"pipemap/internal/estimate"
	"pipemap/internal/fxrt"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
)

// StereoRunner executes the multibaseline stereo pipeline for real on the
// fxrt runtime: difference images over disparity levels, windowed error
// images, and the minimum-reduction depth map, with the structure taken
// from a mapping of the 4-task stereo chain (capture, diff, err, depth).
type StereoRunner struct {
	// W and H are the image dimensions (defaults 128 x 64).
	W, H int
	// Disparities is the number of disparity levels (default 8).
	Disparities int
	// DataSets is the stream length per run (default 12).
	DataSets int
	// TrueDisparity is the uniform disparity of the synthetic scene
	// (default 3).
	TrueDisparity int
}

// StereoData flows between stereo stages.
type StereoData struct {
	// Ref and Target are the rectified image pair.
	Ref, Target kernels.Image
	// Errs are the per-disparity error planes.
	Errs []kernels.Image
	// Depth is the recovered depth map.
	Depth kernels.Image
}

// Stereo op names.
const (
	opCapture   = "exec:capture"
	opDiff      = "exec:diff"
	opErr       = "exec:err"
	opDepth     = "exec:depth"
	opBroadcast = "edge:broadcast"
	opReduce    = "edge:reduce"
)

func (r StereoRunner) dims() (w, h, nd, td int) {
	w, h, nd, td = r.W, r.H, r.Disparities, r.TrueDisparity
	if w == 0 {
		w = 128
	}
	if h == 0 {
		h = 64
	}
	if nd == 0 {
		nd = 8
	}
	if td == 0 {
		td = 3
	}
	return w, h, nd, td
}

// Pipeline builds the fxrt pipeline realizing a mapping of the stereo
// chain.
func (r StereoRunner) Pipeline(m model.Mapping) (*fxrt.Pipeline, error) {
	if m.Chain == nil || m.Chain.Len() != 4 {
		return nil, fmt.Errorf("apps: mapping does not cover the 4-task stereo chain")
	}
	var stages []fxrt.Stage
	for _, mod := range m.Modules {
		mod := mod
		stages = append(stages, fxrt.Stage{
			Name:     m.Chain.TaskNames(mod.Lo, mod.Hi),
			Workers:  mod.Procs,
			Replicas: mod.Replicas,
			Run: func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
				sd, ok := in.(*StereoData)
				if !ok {
					return nil, fmt.Errorf("apps: stereo stage expects StereoData")
				}
				for t := mod.Lo; t < mod.Hi; t++ {
					if err := r.runTask(ctx, t, sd); err != nil {
						return nil, err
					}
				}
				return sd, nil
			},
		})
	}
	return &fxrt.Pipeline{Stages: stages}, nil
}

func (r StereoRunner) runTask(ctx *fxrt.StageCtx, task int, sd *StereoData) error {
	w, h, nd, _ := r.dims()
	switch task {
	case 0: // capture: normalize / preprocess the image pair in place
		return ctx.Rec.Time(opCapture, func() error {
			return ctx.Group.ParallelFor(h, func(y0, y1 int) error {
				for y := y0; y < y1; y++ {
					for x := 0; x < w; x++ {
						sd.Ref.Set(x, y, clamp01(sd.Ref.At(x, y)))
						sd.Target.Set(x, y, clamp01(sd.Target.At(x, y)))
					}
				}
				return nil
			})
		})
	case 1: // broadcast + difference images per disparity level
		err := ctx.Rec.Time(opBroadcast, func() error {
			// Redistribution: every disparity worker needs both images.
			refCopy := kernels.NewImage(w, h)
			tgtCopy := kernels.NewImage(w, h)
			copy(refCopy.Pix, sd.Ref.Pix)
			copy(tgtCopy.Pix, sd.Target.Pix)
			sd.Ref, sd.Target = refCopy, tgtCopy
			return nil
		})
		if err != nil {
			return err
		}
		sd.Errs = make([]kernels.Image, nd)
		return ctx.Rec.Time(opDiff, func() error {
			return ctx.Group.ParallelFor(nd, func(d0, d1 int) error {
				for d := d0; d < d1; d++ {
					diff := kernels.NewImage(w, h)
					if err := kernels.DiffImage(sd.Ref, sd.Target, diff, d, 0, h); err != nil {
						return err
					}
					sd.Errs[d] = diff
				}
				return nil
			})
		})
	case 2: // windowed error images
		return ctx.Rec.Time(opErr, func() error {
			return ctx.Group.ParallelFor(nd, func(d0, d1 int) error {
				for d := d0; d < d1; d++ {
					out := kernels.NewImage(w, h)
					if err := kernels.ErrorImage(sd.Errs[d], out, 2, 0, h); err != nil {
						return err
					}
					sd.Errs[d] = out
				}
				return nil
			})
		})
	case 3: // reduction across disparities to the depth map
		err := ctx.Rec.Time(opReduce, func() error {
			// Redistribution: gather the disparity planes row-major.
			return nil // planes are already shared in-process
		})
		if err != nil {
			return err
		}
		sd.Depth = kernels.NewImage(w, h)
		return ctx.Rec.Time(opDepth, func() error {
			return ctx.Group.ParallelFor(h, func(y0, y1 int) error {
				return kernels.DepthMin(sd.Errs, sd.Depth, y0, y1)
			})
		})
	default:
		return fmt.Errorf("apps: stereo task index %d out of range", task)
	}
}

// clamp01 clamps v to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Run executes the mapping on the runtime and returns measured
// statistics. The last data set's depth map accuracy can be verified with
// VerifyDepth.
func (r StereoRunner) Run(m model.Mapping) (fxrt.Stats, *StereoData, error) {
	p, err := r.Pipeline(m)
	if err != nil {
		return fxrt.Stats{}, nil, err
	}
	n := r.DataSets
	if n <= 0 {
		n = 12
	}
	var last *StereoData
	// Wrap the final stage to capture the last output.
	lastStage := &p.Stages[len(p.Stages)-1]
	innerRun := lastStage.Run
	lastStage.Run = func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
		out, err := innerRun(ctx, in)
		if sd, ok := out.(*StereoData); ok {
			last = sd
		}
		return out, err
	}
	stats, err := p.Run(func(i int) fxrt.DataSet {
		return r.input(i)
	}, n, 0)
	return stats, last, err
}

// input synthesizes the i-th image pair: a deterministic textured
// reference and a target shifted by the scene's true disparity.
func (r StereoRunner) input(i int) *StereoData {
	w, h, _, td := r.dims()
	ref := kernels.NewImage(w, h)
	for idx := range ref.Pix {
		// Deterministic texture with enough variation for matching.
		ref.Pix[idx] = 0.5 + 0.5*math.Sin(float64(idx*31+i*7)*0.7)
	}
	target := kernels.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x-td >= 0 {
				target.Set(x, y, ref.At(x-td, y))
			}
		}
	}
	return &StereoData{Ref: ref, Target: target}
}

// VerifyDepth reports the fraction of interior pixels whose recovered
// disparity matches the synthetic scene's true disparity.
func (r StereoRunner) VerifyDepth(sd *StereoData) float64 {
	if sd == nil || len(sd.Depth.Pix) == 0 {
		return 0
	}
	w, h, _, td := r.dims()
	good, total := 0, 0
	for y := 4; y < h-4; y++ {
		for x := 4; x < w-td-4; x++ {
			total++
			if int(sd.Depth.At(x, y)) == td {
				good++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

var _ estimate.Profiler = StereoRunner{}

// Profile implements estimate.Profiler with real measured op times.
func (r StereoRunner) Profile(m model.Mapping) (estimate.Measurement, error) {
	stats, _, err := r.Run(m)
	if err != nil {
		return estimate.Measurement{}, err
	}
	ops := stats.Ops
	return estimate.Measurement{
		TaskExec: []float64{ops[opCapture], ops[opDiff], ops[opErr], ops[opDepth]},
		EdgeComm: []float64{ops[opBroadcast], 0, ops[opReduce]},
	}, nil
}

// StereoStructure returns the 4-task chain structure for fitting real
// stereo profiles.
func StereoStructure() *model.Chain {
	base := Stereo()
	c := &model.Chain{
		Tasks: make([]model.Task, 4),
		ICom:  []model.CostFunc{model.ZeroExec(), model.ZeroExec(), model.ZeroExec()},
		ECom:  []model.CommFunc{model.ZeroComm(), model.ZeroComm(), model.ZeroComm()},
	}
	for i := range c.Tasks {
		c.Tasks[i] = base.Tasks[i]
		c.Tasks[i].Exec = model.ZeroExec()
		c.Tasks[i].Mem = model.Memory{}
	}
	return c
}

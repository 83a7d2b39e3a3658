package apps

import (
	"fmt"
	"math"
	"sync"

	"pipemap/internal/estimate"
	"pipemap/internal/fxrt"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
)

// FFTHistRunner executes the FFT-Hist program for real on the fxrt
// runtime: a real-input 2D FFT and a histogram of the spectrum's
// magnitudes on n x n real matrices, with the pipeline structure
// (clustering, workers, replication) taken from a mapping. A data set
// holds its matrix column-major: row c of the kernels.Matrix is column c,
// in its real parts. colffts keeps each column's half spectrum, rowffts
// transforms the N/2+1 rows that leaves, and hist counts the missing
// Hermitian mirrors by weight, so every data set counts N*N magnitudes.
// It implements estimate.Profiler, so the whole feedback loop of the
// paper — profile, fit a model, predict the optimal mapping, run it — can
// be exercised end to end on a real workload.
type FFTHistRunner struct {
	// N is the matrix dimension (power of two).
	N int
	// DataSets is the stream length per run (default 12).
	DataSets int
}

// opNames for recorded measurements.
const (
	opColFFTs     = "exec:colffts"
	opRowFFTs     = "exec:rowffts"
	opHist        = "exec:hist"
	opTranspose   = "edge:transpose"
	opHistMerge   = "edge:histmerge"
	opHistHandoff = "edge:handoff"
)

// Pipeline builds the fxrt pipeline realizing the mapping, along with the
// inter-module edge transfers. The mapping must cover the 3-task FFT-Hist
// chain (colffts, rowffts, hist). When the colffts/rowffts boundary
// crosses modules, the transpose of the half spectra runs as a true edge
// transfer on the receiving instance, which redistributes them. The
// pipeline must run with the returned edges, and it owns every matrix
// pushed into it: it returns each to the serving pool once done with it
// (see runTasks).
func (r FFTHistRunner) Pipeline(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, error) {
	if r.N < 2 || r.N&(r.N-1) != 0 {
		return nil, nil, fmt.Errorf("apps: FFT-Hist size %d must be a power of two", r.N)
	}
	if m.Chain == nil || m.Chain.Len() != 3 {
		return nil, nil, fmt.Errorf("apps: mapping does not cover the 3-task FFT-Hist chain")
	}
	var stages []fxrt.Stage
	var edges []fxrt.Edge
	for mi, mod := range m.Modules {
		mod := mod
		stages = append(stages, fxrt.Stage{
			Name:     m.Chain.TaskNames(mod.Lo, mod.Hi),
			Workers:  mod.Procs,
			Replicas: mod.Replicas,
			Run: func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
				return r.runTasks(ctx, mod.Lo, mod.Hi, in)
			},
		})
		if mi == 0 {
			continue
		}
		// The edge into this module: the transpose when the module starts
		// with rowffts, a free handoff otherwise (rowffts+hist share a
		// distribution).
		if mod.Lo == 1 {
			edges = append(edges, fxrt.Edge{
				Name: opTranspose,
				Transfer: func(recv *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
					mat, ok := in.(kernels.Matrix)
					if !ok {
						return nil, fmt.Errorf("apps: transpose edge expects a matrix")
					}
					out := getMatrix(mat.Cols, mat.Rows)
					err := recv.Group.ParallelFor(out.Rows, func(r0, r1 int) error {
						return kernels.Transpose(mat, out, r0, r1)
					})
					return out, err
				},
				Release: func(in fxrt.DataSet) {
					if mat, ok := in.(kernels.Matrix); ok {
						putMatrix(mat)
					}
				},
			})
		} else {
			edges = append(edges, fxrt.Edge{Name: opHistHandoff})
		}
	}
	return &fxrt.Pipeline{Stages: stages}, edges, nil
}

// runTasks executes tasks [lo, hi) of the FFT-Hist chain on the instance's
// group. colffts writes the half spectra of the input's columns into a
// fresh N x (N/2+1) matrix. Edge 0, the transpose to (N/2+1) x N, runs at
// the boundary between colffts and rowffts regardless of which stage hosts
// it. rowffts transforms its rows in place, and hist reduces them with the
// mirror weights of kernels.Histogram.AccumulateHalfSpectrum; edge 1, the
// histogram partial merge, is folded into hist.
//
// No task writes its stage's input, so every attempt works on buffers of
// its own. A matrix made by this attempt — the half spectra and a
// transpose destination — goes back to the pool as soon as the attempt is
// done with it. The stage's input goes back once the attempt has succeeded
// (no retry reads it again), unless the stage has a deadline: then an
// abandoned attempt may still be reading it. A module starting at rowffts
// takes its input from the transpose edge, which returns the edge's source
// itself (fxrt.Edge.Release).
func (r FFTHistRunner) runTasks(ctx *fxrt.StageCtx, lo, hi int, in fxrt.DataSet) (fxrt.DataSet, error) {
	ds := in
	for t := lo; t < hi; t++ {
		mat, ok := ds.(kernels.Matrix)
		if !ok {
			return nil, fmt.Errorf("apps: %s expects a matrix input", fftHistTasks[t])
		}
		switch t {
		case 0:
			out := getMatrix(mat.Rows, mat.Cols/2+1)
			err := ctx.Rec.Time(opColFFTs, func() error {
				// Pairs of columns, so every split pairs them alike.
				return ctx.Group.ParallelFor(mat.Rows/2, func(p0, p1 int) error {
					return kernels.HalfSpectra(mat, out, 2*p0, 2*p1)
				})
			})
			if err != nil {
				return nil, err
			}
			ds = out
		case 1:
			out := mat
			if lo == 0 {
				// Edge 0 is internal to this module: redistribute the half
				// spectra this attempt made, then recycle them.
				out = getMatrix(mat.Cols, mat.Rows)
				err := ctx.Rec.Time(opTranspose, func() error {
					return ctx.Group.ParallelFor(out.Rows, func(r0, r1 int) error {
						return kernels.Transpose(mat, out, r0, r1)
					})
				})
				if err != nil {
					return nil, err
				}
				putMatrix(mat)
			}
			err := ctx.Rec.Time(opRowFFTs, func() error {
				return ctx.Group.ParallelFor(out.Rows, func(r0, r1 int) error {
					return kernels.FFTRows(out, r0, r1)
				})
			})
			if err != nil {
				return nil, err
			}
			ds = out
		case 2:
			w := ctx.Group.Workers()
			partials := make([]*kernels.Histogram, w)
			err := ctx.Rec.Time(opHist, func() error {
				return ctx.Group.ParallelFor(w, func(i0, i1 int) error {
					for i := i0; i < i1; i++ {
						h := kernels.NewHistogram(64, -6, 6)
						r0, r1 := fxrt.BlockRange(mat.Rows, w, i)
						h.AccumulateHalfSpectrum(mat, r0, r1)
						partials[i] = h
					}
					return nil
				})
			})
			if err != nil {
				return nil, err
			}
			total := kernels.NewHistogram(64, -6, 6)
			err = ctx.Rec.Time(opHistMerge, func() error {
				for _, h := range partials {
					if h != nil {
						total.Merge(h)
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if lo < 2 {
				// A transpose destination this attempt made.
				putMatrix(mat)
			}
			ds = total
		}
	}
	if lo != 1 && ctx.Deadline == 0 {
		// The stage's input. A module starting at rowffts got its input
		// from the transpose edge for this attempt alone, and its hist
		// task or the next module returns it.
		putMatrix(in.(kernels.Matrix))
	}
	return ds, nil
}

// fftHistTasks names the FFT-Hist tasks in chain order.
var fftHistTasks = [3]string{"colffts", "rowffts", "hist"}

// Run executes the mapping on the runtime and returns measured statistics.
func (r FFTHistRunner) Run(m model.Mapping) (fxrt.Stats, error) {
	p, edges, err := r.Pipeline(m)
	if err != nil {
		return fxrt.Stats{}, err
	}
	n := r.DataSets
	if n <= 0 {
		n = 12
	}
	return p.RunWithEdges(func(i int) fxrt.DataSet { return r.Input(i) }, n, 0, edges)
}

// perturb varies the stream slightly so runs are not trivially cacheable.
// i may be any int, including a negative submitted seed.
func perturb(mat kernels.Matrix, i int) {
	j := i % len(mat.Data)
	if j < 0 {
		j += len(mat.Data)
	}
	mat.Data[j] += complex(float64(i%7), 0)
}

// Input synthesizes the i-th stream data set: the tone template with a
// per-index perturbation, in a recycled matrix when one is pooled.
func (r FFTHistRunner) Input(i int) kernels.Matrix {
	mat := getMatrix(r.N, r.N)
	copy(mat.Data, fftHistTemplate(r.N).Data)
	perturb(mat, i)
	return mat
}

// templates caches the read-only tone template per matrix size.
var templates sync.Map // int -> kernels.Matrix

// fftHistTemplate returns the n x n input template — a sum of tones plus
// structure — computing it once per n. Callers must not modify it.
func fftHistTemplate(n int) kernels.Matrix {
	if t, ok := templates.Load(n); ok {
		return t.(kernels.Matrix)
	}
	mat := kernels.NewMatrix(n, n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			v := math.Sin(2*math.Pi*3*float64(row)/float64(n)) +
				0.5*math.Cos(2*math.Pi*7*float64(col)/float64(n))
			mat.Set(row, col, complex(v, 0))
		}
	}
	t, _ := templates.LoadOrStore(n, mat)
	return t.(kernels.Matrix)
}

var _ estimate.Profiler = FFTHistRunner{}

// Profile implements estimate.Profiler: it runs the mapping on the real
// runtime and reports mean measured per-task and per-edge times.
func (r FFTHistRunner) Profile(m model.Mapping) (estimate.Measurement, error) {
	stats, err := r.Run(m)
	if err != nil {
		return estimate.Measurement{}, err
	}
	ops := stats.Ops
	return estimate.Measurement{
		TaskExec: []float64{ops[opColFFTs], ops[opRowFFTs], ops[opHist]},
		EdgeComm: []float64{ops[opTranspose], ops[opHistMerge]},
	}, nil
}

// FFTHistStructure returns the 3-task chain structure (names, memory,
// replicability) used when fitting a model from real profiles: cost
// functions are placeholders, replaced by the fit.
func FFTHistStructure(n int) *model.Chain {
	s := float64(n) * float64(n) / (256.0 * 256.0)
	return &model.Chain{
		Tasks: []model.Task{
			{Name: "colffts", Exec: model.ZeroExec(), Mem: model.Memory{Data: 1.4 * s}, Replicable: true},
			{Name: "rowffts", Exec: model.ZeroExec(), Mem: model.Memory{Data: 1.4 * s}, Replicable: true},
			{Name: "hist", Exec: model.ZeroExec(), Mem: model.Memory{Data: 0.35}, Replicable: true},
		},
		ICom: []model.CostFunc{model.ZeroExec(), model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm(), model.ZeroComm()},
	}
}

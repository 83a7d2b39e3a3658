package model

import (
	"fmt"
	"math"
	"sort"
)

// CostFunc is the time, in seconds, of a computation or an internal data
// redistribution as a function of the number of processors executing it.
// Implementations must return non-negative values for p >= 1; behaviour for
// p < 1 is unspecified and callers never ask.
type CostFunc interface {
	Eval(p int) float64
}

// CommFunc is the time, in seconds, to transfer one data set between two
// tasks mapped to disjoint processor sets, as a function of the number of
// processors assigned to the sending and the receiving task. As for
// CostFunc, implementations must return non-negative values for counts
// >= 1: the DP's capped cold solve relies on a transfer never lowering a
// module's response.
type CommFunc interface {
	Eval(psend, precv int) float64
}

// PolyExec is the paper's polynomial execution time model (section 5):
//
//	f(p) = C1 + C2/p + C3*p
//
// C1 is fixed sequential/replicated work, C2 perfectly parallel work, and
// C3 per-processor overhead.
type PolyExec struct {
	C1, C2, C3 float64
}

// Eval returns C1 + C2/p + C3*p.
func (f PolyExec) Eval(p int) float64 {
	return f.C1 + f.C2/float64(p) + f.C3*float64(p)
}

func (f PolyExec) String() string {
	return fmt.Sprintf("%.4g + %.4g/p + %.4g*p", f.C1, f.C2, f.C3)
}

// PolyComm is the paper's external communication model (section 5):
//
//	f(ps, pr) = C1 + C2/ps + C3/pr + C4*ps + C5*pr
//
// C1 is fixed overhead, C2 and C3 the portion that parallelizes over the
// sending and receiving group, C4 and C5 per-processor overheads.
type PolyComm struct {
	C1, C2, C3, C4, C5 float64
}

// Eval returns C1 + C2/ps + C3/pr + C4*ps + C5*pr.
func (f PolyComm) Eval(ps, pr int) float64 {
	return f.C1 + f.C2/float64(ps) + f.C3/float64(pr) + f.C4*float64(ps) + f.C5*float64(pr)
}

func (f PolyComm) String() string {
	return fmt.Sprintf("%.4g + %.4g/ps + %.4g/pr + %.4g*ps + %.4g*pr",
		f.C1, f.C2, f.C3, f.C4, f.C5)
}

// ZeroExec returns a CostFunc that is identically zero. It models free
// computation or free redistribution, e.g. between tasks that share a data
// distribution.
func ZeroExec() CostFunc { return zeroExec{} }

// ZeroComm returns a CommFunc that is identically zero.
func ZeroComm() CommFunc { return zeroComm{} }

type zeroExec struct{}

func (zeroExec) Eval(int) float64 { return 0 }

func (zeroExec) String() string { return "0" }

type zeroComm struct{}

func (zeroComm) Eval(int, int) float64 { return 0 }

func (zeroComm) String() string { return "0" }

// CostFuncOf adapts an arbitrary function of p to a CostFunc.
type CostFuncOf func(p int) float64

// Eval calls the wrapped function.
func (f CostFuncOf) Eval(p int) float64 { return f(p) }

// CommFuncOf adapts an arbitrary function of (ps, pr) to a CommFunc.
type CommFuncOf func(ps, pr int) float64

// Eval calls the wrapped function.
func (f CommFuncOf) Eval(ps, pr int) float64 { return f(ps, pr) }

// TableCost is a tabulated cost function defined pointwise at measured
// processor counts, with linear interpolation between points and constant
// extrapolation outside the measured range. It demonstrates the paper's
// observation (section 5) that the mapping algorithms are not tied to a
// particular analytic model.
type TableCost struct {
	ps []int     // sorted, distinct processor counts
	ts []float64 // times at ps
}

// NewTableCost builds a tabulated cost function from (processors, time)
// points. Points need not be sorted; duplicate processor counts keep the
// last value. At least one point is required.
func NewTableCost(points map[int]float64) (*TableCost, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("model: TableCost needs at least one point")
	}
	t := &TableCost{}
	for p := range points {
		if p < 1 {
			return nil, fmt.Errorf("model: TableCost point at p=%d < 1", p)
		}
		t.ps = append(t.ps, p)
	}
	sort.Ints(t.ps)
	t.ts = make([]float64, len(t.ps))
	for i, p := range t.ps {
		t.ts[i] = points[p]
	}
	return t, nil
}

// Eval interpolates linearly between tabulated points.
func (t *TableCost) Eval(p int) float64 {
	i := sort.SearchInts(t.ps, p)
	if i < len(t.ps) && t.ps[i] == p {
		return t.ts[i]
	}
	if i == 0 {
		return t.ts[0]
	}
	if i == len(t.ps) {
		return t.ts[len(t.ts)-1]
	}
	lo, hi := t.ps[i-1], t.ps[i]
	frac := float64(p-lo) / float64(hi-lo)
	return t.ts[i-1]*(1-frac) + t.ts[i]*frac
}

// SumCost is the pointwise sum of several cost functions; it composes the
// execution time of a module from its constituent tasks and internal
// redistributions.
type SumCost []CostFunc

// Eval returns the sum of the component costs at p.
func (s SumCost) Eval(p int) float64 {
	var total float64
	for _, f := range s {
		total += f.Eval(p)
	}
	return total
}

// ScaleCost multiplies a cost function by a constant factor.
type ScaleCost struct {
	F CostFunc
	K float64
}

// Eval returns K * F(p).
func (s ScaleCost) Eval(p int) float64 { return s.K * s.F.Eval(p) }

// InternalAsComm adapts an internal redistribution cost to the CommFunc
// shape by evaluating it at the larger of the two groups. It is used when a
// caller needs a uniform edge-cost view.
type InternalAsComm struct{ F CostFunc }

// Eval returns F(max(ps, pr)).
func (c InternalAsComm) Eval(ps, pr int) float64 {
	return c.F.Eval(int(math.Max(float64(ps), float64(pr))))
}

// ClampCost wraps a cost function so it never returns a negative time;
// fitted polynomial models can dip below zero outside the training range.
type ClampCost struct{ F CostFunc }

// Eval returns max(0, F(p)).
func (c ClampCost) Eval(p int) float64 {
	if v := c.F.Eval(p); v > 0 {
		return v
	}
	return 0
}

// ClampComm wraps a communication function so it never returns a negative
// time.
type ClampComm struct{ F CommFunc }

// Eval returns max(0, F(ps, pr)).
func (c ClampComm) Eval(ps, pr int) float64 {
	if v := c.F.Eval(ps, pr); v > 0 {
		return v
	}
	return 0
}

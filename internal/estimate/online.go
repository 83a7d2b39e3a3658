package estimate

import (
	"fmt"
	"math"
	"sort"

	"pipemap/internal/model"
)

// OnlineOptions configures an OnlineFitter.
type OnlineOptions struct {
	// Window is the maximum number of retained observations (default 16).
	// Older observations fall out of the ring, so the fit tracks drifting
	// costs instead of averaging over the whole history.
	Window int
	// MinSamples is the confidence gate: Refit reports not-ready until the
	// window holds at least this many observations (default 3).
	MinSamples int
}

// outlierK rejects observations further than outlierK median absolute
// deviations from the window median. When the MAD is zero (a majority of
// identical observations) only exact-median samples are kept, so a lone
// wild value among constants is still rejected.
const outlierK = 5

func (o OnlineOptions) withDefaults() OnlineOptions {
	if o.Window <= 0 {
		o.Window = 16
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 3
	}
	return o
}

// OnlineFitter incrementally refits one stage's execution-time model from
// live observations. The offline fit (section 5 of the paper) supplies the
// *shape* of the cost function; runtime observations arrive at a single
// processor count, which cannot re-identify all three polynomial
// coefficients on its own. The fitter therefore anchors the refit on the
// prior model evaluated across a spread of processor counts, scales the
// anchors by the robust observed-over-predicted ratio at the live count,
// and re-runs the ordinary least-squares fit (FitExec) over anchors plus
// raw observations. The result is a full PolyExec that agrees with the
// observations where the stage actually runs and degrades gracefully to
// the prior's shape elsewhere.
type OnlineFitter struct {
	prior model.CostFunc
	procs int
	opt   OnlineOptions

	ring  []float64
	next  int
	count int // total ever observed
}

// Refit is the outcome of one OnlineFitter.Refit call.
type Refit struct {
	// Exec is the refitted execution model.
	Exec model.PolyExec
	// Stats scores Exec against the accepted observations; RMSE is the
	// refit residual surfaced by the adaptive controller.
	Stats FitStats
	// Ratio is the robust observed/predicted correction at the live
	// processor count (1 = the prior was right; 0 = the prior predicted a
	// non-positive time and the fit is observation-only).
	Ratio float64
	// Samples and Rejected count the accepted window observations and the
	// outliers discarded by the MAD filter.
	Samples  int
	Rejected int
}

// NewOnlineFitter returns a fitter for a stage whose prior cost model is
// prior and which currently runs on procs processors per instance.
func NewOnlineFitter(prior model.CostFunc, procs int, opt OnlineOptions) *OnlineFitter {
	if procs < 1 {
		procs = 1
	}
	o := opt.withDefaults()
	return &OnlineFitter{prior: prior, procs: procs, opt: o, ring: make([]float64, 0, o.Window)}
}

// Observe adds one observed per-data-set service time in seconds.
// Non-finite and negative observations are ignored.
func (f *OnlineFitter) Observe(seconds float64) {
	if f == nil || math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0 {
		return
	}
	if len(f.ring) < f.opt.Window {
		f.ring = append(f.ring, seconds)
	} else {
		f.ring[f.next] = seconds
	}
	f.next = (f.next + 1) % f.opt.Window
	f.count++
}

// Len returns the number of observations currently in the window.
func (f *OnlineFitter) Len() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// accept returns the window observations surviving the MAD outlier filter
// and the number rejected.
func (f *OnlineFitter) accept() ([]float64, int) {
	vals := append([]float64(nil), f.ring...)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	devs := make([]float64, len(sorted))
	for i, v := range sorted {
		devs[i] = math.Abs(v - med)
	}
	sort.Float64s(devs)
	mad := devs[len(devs)/2]
	bound := outlierK * mad
	if mad == 0 {
		// Degenerate spread: keep only the (majority) median value, with a
		// tiny relative tolerance for float noise.
		bound = 1e-9 * math.Max(1, math.Abs(med))
	}
	kept := vals[:0]
	rejected := 0
	for _, v := range vals {
		if math.Abs(v-med) <= bound {
			kept = append(kept, v)
		} else {
			rejected++
		}
	}
	return kept, rejected
}

// anchorProcs returns the processor counts at which the prior is sampled
// to anchor the refit, spread around the live count and bounded by
// maxProcs (0 = no bound).
func (f *OnlineFitter) anchorProcs(maxProcs int) []int {
	cand := []int{1, 2, f.procs / 2, f.procs, 2 * f.procs, maxProcs}
	seen := map[int]bool{}
	var out []int
	for _, p := range cand {
		if p < 1 || (maxProcs > 0 && p > maxProcs) || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Refit fits a fresh execution model to the windowed observations.
// maxProcs bounds the anchor spread (pass the platform's processor count;
// 0 = unbounded). It returns an error — never a panic — when the window
// holds fewer than MinSamples observations or the fit degenerates.
func (f *OnlineFitter) Refit(maxProcs int) (Refit, error) {
	if f == nil {
		return Refit{}, fmt.Errorf("estimate: nil online fitter")
	}
	if len(f.ring) < f.opt.MinSamples {
		return Refit{}, fmt.Errorf("estimate: online refit gated: %d of %d samples",
			len(f.ring), f.opt.MinSamples)
	}
	kept, rejected := f.accept()
	if len(kept) == 0 {
		return Refit{}, fmt.Errorf("estimate: online refit rejected every sample as an outlier")
	}
	var obs float64
	for _, v := range kept {
		obs += v
	}
	obs /= float64(len(kept))

	pred := 0.0
	if f.prior != nil {
		pred = f.prior.Eval(f.procs)
	}
	ratio := 0.0
	if pred > 0 && !math.IsInf(pred, 0) && !math.IsNaN(pred) {
		ratio = obs / pred
	}

	samples := make([]ExecSample, 0, len(kept)+8)
	for _, p := range f.anchorProcs(maxProcs) {
		t := obs // observation-only fallback: a flat anchor at the observed mean
		if ratio > 0 {
			if v := f.prior.Eval(p) * ratio; v >= 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				t = v
			}
		}
		samples = append(samples, ExecSample{Procs: p, Time: t})
	}
	for _, v := range kept {
		samples = append(samples, ExecSample{Procs: f.procs, Time: v})
	}

	exec, err := FitExec(samples)
	if err != nil {
		return Refit{}, fmt.Errorf("estimate: online refit: %w", err)
	}
	obsSamples := make([]ExecSample, len(kept))
	for i, v := range kept {
		obsSamples[i] = ExecSample{Procs: f.procs, Time: v}
	}
	stats, err := ExecFitStats(exec, obsSamples)
	if err != nil {
		return Refit{}, fmt.Errorf("estimate: online refit residuals: %w", err)
	}
	if math.IsNaN(stats.RMSE) || math.IsInf(stats.RMSE, 0) {
		return Refit{}, fmt.Errorf("estimate: online refit produced a non-finite residual")
	}
	return Refit{Exec: exec, Stats: stats, Ratio: ratio, Samples: len(kept), Rejected: rejected}, nil
}

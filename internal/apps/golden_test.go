package apps

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/kernels"
)

// servedGolden is what 256 served requests per app computed, on the
// servedApp inputs and DP mappings, with the kernels that rebuilt every
// twiddle factor by recurrence and binned through math.Log10. It was
// recorded once with those kernels and is never regenerated: it pins the
// served results across kernel rewrites.
type servedGolden struct {
	// Radar holds each request's detections, in order, as
	// [doppler, range, power, threshold].
	Radar [][][4]float64 `json:"radar"`
	// FFTHist holds each request's histogram.
	FFTHist []struct {
		Bins  []int64 `json:"bins"`
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
		SumSq float64 `json:"sumsq"`
		Min   float64 `json:"min"`
		Max   float64 `json:"max"`
	} `json:"ffthist"`
}

// TestServedResultsMatchParent serves the golden inputs and compares what
// each request computed. Integers — detection cells and counts, histogram
// counts and bins — must be identical. Floats may move by FFT rounding:
// radar powers and thresholds within 1e-12 relative, and FFT-Hist's
// magnitudes within 1e-12 of the data set's max, in their own units (the
// minimum, maximum and mean in magnitudes, the mean square in squared
// magnitudes).
func TestServedResultsMatchParent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "served_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want servedGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	serve := func(a servedApp, n int) []served {
		pl, edges, err := a.build(a.mapping)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := a.serve(t, pl, edges, n, 2)
		return got
	}
	near := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

	for i, g := range serve(radarServed(t), len(want.Radar)) {
		dets, w := g.result.([]kernels.Detection), want.Radar[i]
		if len(dets) != len(w) {
			t.Errorf("radar request %d: %d detections, want %d", i, len(dets), len(w))
			continue
		}
		for j, d := range dets {
			wd := w[j]
			if float64(d.Doppler) != wd[0] || float64(d.Range) != wd[1] {
				t.Errorf("radar request %d detection %d at (%d, %d), want (%g, %g)", i, j, d.Doppler, d.Range, wd[0], wd[1])
			}
			if !near(d.Power, wd[2], 1e-12*wd[2]) || !near(d.Threshold, wd[3], 1e-12*wd[3]) {
				t.Errorf("radar request %d detection %d: power %v threshold %v, want %v %v", i, j, d.Power, d.Threshold, wd[2], wd[3])
			}
		}
	}

	for i, g := range serve(ffthistServed(t), len(want.FFTHist)) {
		h, w := g.result.(kernels.Histogram), want.FFTHist[i]
		if h.Count != w.Count || len(h.Bins) != len(w.Bins) {
			t.Errorf("ffthist request %d: count %d over %d bins, want %d over %d", i, h.Count, len(h.Bins), w.Count, len(w.Bins))
			continue
		}
		for b := range h.Bins {
			if h.Bins[b] != w.Bins[b] {
				t.Errorf("ffthist request %d: bin %d holds %d, want %d", i, b, h.Bins[b], w.Bins[b])
			}
		}
		n, tol := float64(w.Count), 1e-12*w.Max
		if !near(h.Min, w.Min, tol) || !near(h.Max, w.Max, tol) || !near(h.Sum/n, w.Sum/n, tol) ||
			!near(h.SumSq/n, w.SumSq/n, tol*w.Max) {
			t.Errorf("ffthist request %d: min %v max %v sum %v sumsq %v, want %v %v %v %v",
				i, h.Min, h.Max, h.Sum, h.SumSq, w.Min, w.Max, w.Sum, w.SumSq)
		}
	}
}

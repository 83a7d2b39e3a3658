package apps

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/kernels"
)

// servedGolden is what 256 served radar requests computed, on the
// radarServed inputs and DP mapping, with the kernels that rebuilt every
// twiddle factor by recurrence and binned through math.Log10. It was
// recorded once with those kernels and is never regenerated: it pins the
// served results across kernel rewrites.
type servedGolden struct {
	// Radar holds each request's detections, in order, as
	// [doppler, range, power, threshold].
	Radar [][][4]float64 `json:"radar"`
}

// TestServedResultsMatchParent serves the golden inputs and checks what
// each request computed. Radar must match the golden file: detection cells
// identical, powers and thresholds within 1e-12 relative. FFT-Hist serves
// 256 seeded requests and must match the histogram of the full complex 2D
// FFT of each decoded input (matchSpectrum).
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

	a := ffthistServed(t)
	for i, g := range serve(a, 256) {
		ds, err := a.codec.Decode(json.RawMessage(a.input(i)))
		if err != nil {
			t.Fatal(err)
		}
		h := g.result.(kernels.Histogram)
		if err := matchSpectrum(&h, fft2(t, ds.(kernels.Matrix))); err != nil {
			t.Errorf("ffthist request %d: %v", i, err)
		}
	}
}

package kernels

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramMoments(t *testing.T) {
	h := NewHistogram(16, -6, 6)
	h.Accumulate([]complex128{1, 2, 3, 4}) // magnitudes 1..4
	if h.Count != 4 {
		t.Fatalf("Count = %d", h.Count)
	}
	if math.Abs(h.Mean()-2.5) > 1e-12 {
		t.Errorf("Mean = %g, want 2.5", h.Mean())
	}
	if math.Abs(h.Variance()-1.25) > 1e-12 {
		t.Errorf("Variance = %g, want 1.25", h.Variance())
	}
	if h.Min != 1 || h.Max != 4 {
		t.Errorf("Min/Max = %g/%g", h.Min, h.Max)
	}
	var total int64
	for _, b := range h.Bins {
		total += b
	}
	if total != 4 {
		t.Errorf("bin total = %d, want 4", total)
	}
}

func TestHistogramMergeEquivalentToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]complex128, 1000)
	for i := range vals {
		vals[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	whole := NewHistogram(32, -6, 6)
	whole.Accumulate(vals)
	a := NewHistogram(32, -6, 6)
	b := NewHistogram(32, -6, 6)
	a.Accumulate(vals[:400])
	b.Accumulate(vals[400:])
	a.Merge(b)
	if a.Count != whole.Count || a.Min != whole.Min || a.Max != whole.Max {
		t.Error("merged counts or extrema differ from sequential")
	}
	if math.Abs(a.Sum-whole.Sum) > 1e-9*whole.Sum {
		t.Errorf("merged Sum %g differs from sequential %g beyond rounding", a.Sum, whole.Sum)
	}
	for i := range a.Bins {
		if a.Bins[i] != whole.Bins[i] {
			t.Fatalf("bin %d differs: %d vs %d", i, a.Bins[i], whole.Bins[i])
		}
	}
}

func TestRadarDetectsInjectedTarget(t *testing.T) {
	const pulses, gates = 16, 64
	rng := rand.New(rand.NewSource(5))
	// Reference chirp.
	chirp := make([]complex128, gates)
	for i := 0; i < 8; i++ {
		phase := 0.1 * float64(i*i)
		chirp[i] = complex(math.Cos(phase), math.Sin(phase))
	}
	chirpFreq := append([]complex128(nil), chirp...)
	if err := FFT(chirpFreq); err != nil {
		t.Fatal(err)
	}
	// Data cube: noise plus a target echo at gate 20 moving with a phase
	// ramp across pulses (Doppler bin 4).
	cube := NewMatrix(pulses, gates)
	for p := 0; p < pulses; p++ {
		for g := 0; g < gates; g++ {
			cube.Set(p, g, complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05))
		}
		dopplerPhase := 2 * math.Pi * 4 * float64(p) / float64(pulses)
		for i := 0; i < 8; i++ {
			g := 20 + i
			echo := chirp[i] * complex(math.Cos(dopplerPhase), math.Sin(dopplerPhase))
			cube.Set(p, g, cube.At(p, g)+echo*3)
		}
	}
	if err := MatchedFilter(cube, chirpFreq, 0, pulses); err != nil {
		t.Fatal(err)
	}
	if err := DopplerFFT(cube, 0, gates); err != nil {
		t.Fatal(err)
	}
	PowerRows(cube, 0, pulses)
	dets := CFAR(cube, 2, 8, 10, 0, pulses)
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	// The strongest detection must sit at Doppler 4, range 20.
	best := dets[0]
	for _, d := range dets {
		if d.Power > best.Power {
			best = d
		}
	}
	if best.Doppler != 4 || best.Range != 20 {
		t.Errorf("strongest detection at doppler=%d range=%d, want 4/20", best.Doppler, best.Range)
	}
}

func TestMatchedFilterChirpLengthError(t *testing.T) {
	cube := NewMatrix(2, 8)
	if err := MatchedFilter(cube, make([]complex128, 4), 0, 2); err == nil {
		t.Error("chirp length mismatch accepted")
	}
}

func TestCFARNoFalseAlarmOnFlatField(t *testing.T) {
	cube := NewMatrix(4, 32)
	for i := range cube.Data {
		cube.Data[i] = complex(1, 0)
	}
	dets := CFAR(cube, 1, 4, 1.5, 0, 4)
	if len(dets) != 0 {
		t.Errorf("flat field produced %d detections", len(dets))
	}
}

func TestStereoRecoversUniformDisparity(t *testing.T) {
	const w, h, trueD, nDisp = 64, 32, 3, 8
	rng := rand.New(rand.NewSource(6))
	ref := NewImage(w, h)
	for i := range ref.Pix {
		ref.Pix[i] = rng.Float64()
	}
	// Target is ref shifted right by trueD: target(x) = ref(x - trueD),
	// so ref(x) == target(x + trueD).
	target := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x-trueD >= 0 {
				target.Set(x, y, ref.At(x-trueD, y))
			} else {
				target.Set(x, y, rng.Float64())
			}
		}
	}
	errs := make([]Image, nDisp)
	for d := 0; d < nDisp; d++ {
		diff := NewImage(w, h)
		if err := DiffImage(ref, target, diff, d, 0, h); err != nil {
			t.Fatal(err)
		}
		errs[d] = NewImage(w, h)
		if err := ErrorImage(diff, errs[d], 2, 0, h); err != nil {
			t.Fatal(err)
		}
	}
	depth := NewImage(w, h)
	if err := DepthMin(errs, depth, 0, h); err != nil {
		t.Fatal(err)
	}
	// Interior pixels (valid correspondence, full windows) must recover
	// the true disparity.
	wrong := 0
	for y := 4; y < h-4; y++ {
		for x := 4; x < w-trueD-4; x++ {
			if int(depth.At(x, y)) != trueD {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d interior pixels missed disparity %d", wrong, trueD)
	}
}

func TestStereoShapeErrors(t *testing.T) {
	a := NewImage(4, 4)
	b := NewImage(5, 4)
	if err := DiffImage(a, b, a, 0, 0, 4); err == nil {
		t.Error("diff shape mismatch accepted")
	}
	if err := ErrorImage(a, b, 1, 0, 4); err == nil {
		t.Error("error shape mismatch accepted")
	}
	if err := DepthMin(nil, a, 0, 4); err == nil {
		t.Error("empty error stack accepted")
	}
	if err := DepthMin([]Image{b}, a, 0, 4); err == nil {
		t.Error("depth shape mismatch accepted")
	}
}

package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cfarReference is the per-cell CFAR loop: every cell sums its own
// window with a bounds test per neighbour. CFAR must reproduce it bit for
// bit.
func cfarReference(power Matrix, guard, ref int, factor float64, r0, r1 int) []Detection {
	var dets []Detection
	for r := r0; r < r1; r++ {
		row := power.Row(r)
		for c := 0; c < power.Cols; c++ {
			sum, n := 0.0, 0
			for d := guard + 1; d <= guard+ref; d++ {
				if c-d >= 0 {
					sum += real(row[c-d])
					n++
				}
				if c+d < power.Cols {
					sum += real(row[c+d])
					n++
				}
			}
			if n == 0 {
				continue
			}
			thr := factor * sum / float64(n)
			if p := real(row[c]); p > thr {
				dets = append(dets, Detection{Doppler: r, Range: c, Power: p, Threshold: thr})
			}
		}
	}
	return dets
}

// cfarPowers fills a rows x cols power cube from rng: exponential noise
// with occasional strong echoes, and — when special is set — zeros,
// infinities, NaNs and negatives scattered through it.
func cfarPowers(rng *rand.Rand, rows, cols int, special bool) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		v := rng.ExpFloat64()
		if rng.Intn(16) == 0 {
			v *= 100
		}
		if special {
			switch rng.Intn(24) {
			case 0:
				v = 0
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.NaN()
			case 3:
				v = -v
			case 4:
				v = math.Inf(-1)
			}
		}
		m.Data[i] = complex(v, 0)
	}
	return m
}

func checkCFAR(t *testing.T, power Matrix, guard, ref int, factor float64, r0, r1 int) {
	t.Helper()
	got := CFAR(power, guard, ref, factor, r0, r1)
	want := cfarReference(power, guard, ref, factor, r0, r1)
	same := reflect.DeepEqual(got, want)
	// DeepEqual takes -0 for +0; the bits must match too.
	for i := 0; same && i < len(got); i++ {
		same = math.Float64bits(got[i].Power) == math.Float64bits(want[i].Power) &&
			math.Float64bits(got[i].Threshold) == math.Float64bits(want[i].Threshold)
	}
	if !same {
		t.Fatalf("%dx%d guard %d ref %d factor %v rows [%d, %d): CFAR differs from the per-cell loop:\n got  %v\n want %v",
			power.Rows, power.Cols, guard, ref, factor, r0, r1, got, want)
	}
}

// TestCFARMatchesReference checks CFAR bit for bit against the per-cell
// loop on the served 16x256 shape and on every row short enough to have
// at most a few cells whose window fits inside it.
func TestCFARMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, special := range []bool{false, true} {
		cube := cfarPowers(rng, 16, 256, special)
		checkCFAR(t, cube, 2, 8, 12, 0, 16)
		checkCFAR(t, cube, 2, 8, 12, 5, 11)
		checkCFAR(t, cube, 2, 8, 1.5, 0, 16)
	}
	// Echoes on a field of -0: each echo's window sums to +0, as the
	// per-cell loop's sum from +0 gives.
	zeros := NewMatrix(2, 64)
	for i := range zeros.Data {
		zeros.Data[i] = complex(math.Copysign(0, -1), 0)
	}
	zeros.Data[30], zeros.Data[64+33] = 1, 2
	checkCFAR(t, zeros, 2, 8, 12, 0, 2)

	// A served-like cube: the target's echo among weak clutter.
	cube := randCube(16, 256, 17)
	cube.Set(3, 64, complex(40, 25))
	PowerRows(cube, 0, 16)
	if dets := CFAR(cube, 2, 8, 12, 0, 16); len(dets) == 0 {
		t.Fatal("no detection of the injected echo")
	}
	checkCFAR(t, cube, 2, 8, 12, 0, 16)

	for guard := 0; guard <= 4; guard++ {
		for ref := 0; ref <= 10; ref++ {
			for cols := 1; cols <= 2*(guard+ref)+9; cols++ {
				for _, special := range []bool{false, true} {
					checkCFAR(t, cfarPowers(rng, 3, cols, special), guard, ref, 2, 0, 3)
				}
			}
		}
	}
}

// FuzzCFARMatchesReference checks CFAR bit for bit against the per-cell
// loop over cube shapes, windows, factors, row ranges and powers that
// include zeros, infinities and NaNs.
func FuzzCFARMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(16), uint16(256), uint8(2), uint8(8), 12.0, uint8(0), uint8(16), true)
	f.Add(int64(2), uint8(3), uint16(21), uint8(2), uint8(8), 12.0, uint8(0), uint8(3), false)
	f.Add(int64(3), uint8(4), uint16(1), uint8(0), uint8(1), 1.0, uint8(1), uint8(3), true)
	f.Add(int64(4), uint8(5), uint16(300), uint8(4), uint8(10), 0.5, uint8(2), uint8(5), true)
	f.Add(int64(5), uint8(2), uint16(40), uint8(0), uint8(0), 12.0, uint8(0), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, cols uint16, guard, ref uint8, factor float64, r0, r1 uint8, special bool) {
		nr, nc := 1+int(rows)%16, 1+int(cols)%300
		g, rf := int(guard)%5, int(ref)%11
		lo, hi := int(r0)%(nr+1), int(r1)%(nr+1)
		rng := rand.New(rand.NewSource(seed))
		checkCFAR(t, cfarPowers(rng, nr, nc, special), g, rf, factor, lo, hi)
	})
}

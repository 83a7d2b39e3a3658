package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// tableShapes are histogram shapes binTable serves: the apps' 64 bins over
// [-6, 6], the widest bin count, a single bin, and a range low enough that
// log10(m+1e-300) bends the thresholds near 1e-300.
var tableShapes = []struct {
	n      int
	lo, hi float64
}{
	{64, -6, 6},
	{256, -8, 8},
	{1, -1, 1},
	{20, -305, -295},
	{12, 0.5, 300},
}

// accumulateFormula is the reference Accumulate: the bin formula on every
// magnitude and the running totals in the same order.
func accumulateFormula(h *Histogram, vals []complex128) {
	span := h.Hi - h.Lo
	for _, v := range vals {
		mag := cmplx.Abs(v)
		h.Bins[bin(mag, len(h.Bins), h.Lo, span)]++
		h.Count++
		h.Sum += mag
		h.SumSq += mag * mag
		if mag < h.Min {
			h.Min = mag
		}
		if mag > h.Max {
			h.Max = mag
		}
	}
}

// sameHistogram reports whether a and b hold the same bins and
// bit-identical totals.
func sameHistogram(a, b *Histogram) bool {
	for i := range a.Bins {
		if a.Bins[i] != b.Bins[i] {
			return false
		}
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Count == b.Count && same(a.Sum, b.Sum) && same(a.SumSq, b.SumSq) &&
		same(a.Min, b.Min) && same(a.Max, b.Max)
}

// checkAgainstFormula accumulates vals both ways, and one at a time,
// and fails on any difference.
func checkAgainstFormula(t *testing.T, n int, lo, hi float64, vals []complex128) {
	t.Helper()
	got, want := NewHistogram(n, lo, hi), NewHistogram(n, lo, hi)
	got.Accumulate(vals)
	accumulateFormula(want, vals)
	if !sameHistogram(got, want) {
		for _, v := range vals {
			one, ref := NewHistogram(n, lo, hi), NewHistogram(n, lo, hi)
			one.Accumulate([]complex128{v})
			accumulateFormula(ref, []complex128{v})
			if !sameHistogram(one, ref) {
				t.Fatalf("shape (%d, %g, %g): |%v| = %v binned %v, formula gives %v",
					n, lo, hi, v, cmplx.Abs(v), one.Bins, ref.Bins)
			}
		}
		t.Fatalf("shape (%d, %g, %g): totals %+v, formula gives %+v", n, lo, hi, got, want)
	}
}

// TestHistogramTableMatchesFormula checks table binning against the
// formula on every threshold's neighbourhood, the special magnitudes, and
// random matrices spread over 16 decades.
func TestHistogramTableMatchesFormula(t *testing.T) {
	special := []complex128{
		0, complex(math.SmallestNonzeroFloat64, 0), complex(0x1p-1022-0x1p-1074, 0),
		complex(0x1p-1022, 0), 1e-300, 1e-6, 1, 1e6, 1e300 + 1e300i,
		complex(math.MaxFloat64, 0), complex(math.MaxFloat64, math.MaxFloat64),
		cmplx.Inf(), complex(math.NaN(), 0), complex(math.NaN(), math.Inf(1)),
	}
	for _, s := range tableShapes {
		tab := binTableFor(s.n, s.lo, s.hi)
		if tab == nil {
			t.Fatalf("shape (%d, %g, %g) not served by a table", s.n, s.lo, s.hi)
		}
		var vals []complex128
		for k := 1; k < s.n; k++ {
			th := tab.th[k]
			if math.IsInf(th, 1) {
				continue
			}
			// Every bit pattern within 2000 ulps of the threshold.
			mid := math.Float64bits(th)
			for b := mid - min(mid, 2000); b <= mid+2000; b++ {
				vals = append(vals, complex(math.Float64frombits(b), 0))
			}
		}
		vals = append(vals, special...)
		rng := rand.New(rand.NewSource(int64(s.n)))
		for i := 0; i < 1<<14; i++ {
			scale := math.Pow(10, 16*rng.Float64()-8)
			vals = append(vals, complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale))
		}
		checkAgainstFormula(t, s.n, s.lo, s.hi, vals)
	}
}

// TestHistogramShapesOutsideTable pins which shapes fall back to the
// formula: too many bins, bins too narrow to hold one threshold per bucket,
// and an empty or inverted range.
func TestHistogramShapesOutsideTable(t *testing.T) {
	for _, s := range []struct {
		n      int
		lo, hi float64
	}{{257, -100, 100}, {256, -6, 6}, {64, 6, -6}, {8, 1, 1}, {8, math.NaN(), 1}} {
		if binTableFor(s.n, s.lo, s.hi) != nil {
			t.Errorf("shape (%d, %g, %g) served by a table", s.n, s.lo, s.hi)
		}
		rng := rand.New(rand.NewSource(1))
		vals := make([]complex128, 256)
		for i := range vals {
			vals[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64())
		}
		checkAgainstFormula(t, s.n, s.lo, s.hi, vals)
	}
}

// TestHistogramNonFiniteBins pins the clamp for magnitudes the formula
// cannot convert to an int: +Inf lands in the last bin with the largest
// finite magnitudes, NaN in the first.
func TestHistogramNonFiniteBins(t *testing.T) {
	for _, tab := range []bool{true, false} {
		n, lo, hi := 64, -6.0, 6.0
		if !tab {
			n = 1000 // bins too narrow for a table: the formula path
		}
		h := NewHistogram(n, lo, hi)
		h.Accumulate([]complex128{cmplx.Inf(), 1e300 + 1e300i, complex(math.NaN(), 0)})
		if h.Bins[0] != 1 || h.Bins[n-1] != 2 {
			t.Errorf("%d bins: first %d, last %d; want 1 (NaN) and 2 (+Inf and 1.4e300)", n, h.Bins[0], h.Bins[n-1])
		}
	}
}

// FuzzHistogramMatchesFormula checks table binning against the formula on
// arbitrary magnitudes, over the fixed table shapes (a fuzzed shape would
// cache a table per input).
func FuzzHistogramMatchesFormula(f *testing.F) {
	f.Add(1.0, 0.0, uint8(0))
	f.Add(1e-6, 1e-7, uint8(0))
	f.Add(math.MaxFloat64, math.MaxFloat64, uint8(1))
	f.Add(5e-324, 0.0, uint8(3))
	f.Add(math.Inf(1), math.NaN(), uint8(2))
	f.Fuzz(func(t *testing.T, re, im float64, shape uint8) {
		s := tableShapes[int(shape)%len(tableShapes)]
		v := complex(re, im)
		vals := []complex128{v, v * 0.5, v * 2, complex(math.Nextafter(re, 0), im)}
		checkAgainstFormula(t, s.n, s.lo, s.hi, vals)
	})
}

// TestHistogramWeightedMatchesRepeated checks that weight w gives the
// bins, count, minimum and maximum of w repeated Accumulate calls exactly,
// and their sums within rounding. Weight 1 is Accumulate itself, which
// FuzzHistogramMatchesFormula pins.
func TestHistogramWeightedMatchesRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var random []complex128 // finite, so the sums compare within rounding
	for i := 0; i < 1000; i++ {
		scale := math.Pow(10, 16*rng.Float64()-8)
		random = append(random, complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale))
	}
	for _, s := range tableShapes {
		for _, w := range []int64{2, 3, 7} {
			got, rep := NewHistogram(s.n, s.lo, s.hi), NewHistogram(s.n, s.lo, s.hi)
			got.accumulate(random, w)
			for range w {
				rep.Accumulate(random)
			}
			if got.Count != rep.Count || got.Min != rep.Min || got.Max != rep.Max ||
				!slices.Equal(got.Bins, rep.Bins) {
				t.Errorf("shape (%d, %g, %g) weight %d: %+v, repeated Accumulate gives %+v", s.n, s.lo, s.hi, w, got, rep)
			}
			if math.Abs(got.Sum-rep.Sum) > 1e-12*rep.Sum || math.Abs(got.SumSq-rep.SumSq) > 1e-12*rep.SumSq {
				t.Errorf("shape (%d, %g, %g) weight %d: sums %v %v, repeated Accumulate gives %v %v",
					s.n, s.lo, s.hi, w, got.Sum, got.SumSq, rep.Sum, rep.SumSq)
			}
		}
	}
}

// TestHistogramHalfSpectrumWeights pins the mirror weights: on a half
// spectrum of n/2+1 rows, rows 0 and n/2 count once and the others twice,
// however the rows are split.
func TestHistogramHalfSpectrumWeights(t *testing.T) {
	for _, n := range []int{2, 4, 16} {
		m := NewMatrix(n/2+1, 3)
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				m.Set(r, c, complex(math.Pow(10, float64(r)-3), 0)) // one bin per row
			}
		}
		for cut := 0; cut <= m.Rows; cut++ {
			h := NewHistogram(64, -6, 6)
			h.AccumulateHalfSpectrum(m, 0, cut)
			h.AccumulateHalfSpectrum(m, cut, m.Rows)
			if h.Count != int64(n*m.Cols) {
				t.Errorf("n=%d cut %d: count %d, want %d", n, cut, h.Count, n*m.Cols)
			}
			for r := 0; r < m.Rows; r++ {
				want := int64(2 * m.Cols)
				if r == 0 || r == n/2 {
					want = int64(m.Cols)
				}
				if b := bin(real(m.At(r, 0)), 64, -6, 12); h.Bins[b] != want {
					t.Errorf("n=%d cut %d: row %d counted %d times, want %d", n, cut, r, h.Bins[b], want)
				}
			}
		}
	}
}

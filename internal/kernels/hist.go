package kernels

import (
	"math"
	"math/cmplx"
	"sync"
)

// Histogram accumulates magnitude statistics of a spectrum, the hist task
// of FFT-Hist: a fixed-bin histogram of log magnitudes plus running
// moments. Partial histograms from different workers are merged with
// Merge, which is the task's internal communication.
//
// A magnitude m falls in bin int(n*(log10(m+1e-300)-Lo)/(Hi-Lo)) of the n
// bins, clamped to [0, n) before the conversion: a magnitude past Hi,
// +Inf included, lands in bin n-1, and one below Lo, or NaN, in bin 0.
type Histogram struct {
	Bins     []int64
	Lo, Hi   float64 // bin range in log10 magnitude
	Count    int64
	Sum      float64
	SumSq    float64
	Min, Max float64
}

// NewHistogram returns an empty histogram with n bins over [lo, hi].
func NewHistogram(n int, lo, hi float64) *Histogram {
	return &Histogram{
		Bins: make([]int64, n),
		Lo:   lo, Hi: hi,
		Min: math.Inf(1), Max: math.Inf(-1),
	}
}

// AccumulateHalfSpectrum adds rows [r0, r1) of a half spectrum: rows 0 to
// n/2 of the 2D FFT of a real matrix with n = 2(m.Rows-1) rows. Each row k
// from 1 to n/2-1 counts twice, once more for its Hermitian mirror, row
// n-k, whose magnitudes are row k's in another order; rows 0 and n/2 are
// their own mirrors and count once. All m.Rows rows together count
// n*m.Cols values, the whole spectrum.
func (h *Histogram) AccumulateHalfSpectrum(m Matrix, r0, r1 int) {
	last := m.Rows - 1
	for r0 < r1 {
		w, end := int64(2), min(r1, last)
		if r0 == 0 || r0 == last {
			w, end = 1, r0+1
		}
		h.accumulate(m.Data[r0*m.Cols:end*m.Cols], w)
		r0 = end
	}
}

// Accumulate adds values to the histogram, each once.
func (h *Histogram) Accumulate(vals []complex128) { h.accumulate(vals, 1) }

// accumulate adds values to the histogram as w occurrences each
// (w >= 1). Bins, Count, Min and Max come out as w calls of Accumulate
// would leave them; Sum and SumSq gain w*|v| and w*|v|*|v| per value,
// which for w = 1 is |v| and |v|*|v| exactly. Finite magnitudes are binned
// from a cached table when the shape allows (see binTable), which gives
// the same bin as the formula on Histogram without a logarithm.
func (h *Histogram) accumulate(vals []complex128, w int64) {
	n := len(h.Bins)
	span := h.Hi - h.Lo
	t := binTableFor(n, h.Lo, h.Hi)
	bins := h.Bins
	fw := float64(w)
	count, sum, sumSq, mn, mx := h.Count, h.Sum, h.SumSq, h.Min, h.Max
	for _, v := range vals {
		mag := cmplx.Abs(v)
		var idx int
		if key := math.Float64bits(mag) >> 49; t != nil && key < infKey {
			idx = int(t.bucket[key])
			up := 0 // branch-free: which side of the threshold is unpredictable
			if mag >= t.th[idx+1] {
				up = 1
			}
			idx += up
		} else {
			idx = bin(mag, n, h.Lo, span)
		}
		bins[idx] += w
		count += w
		sum += fw * mag
		sumSq += fw * mag * mag
		if mag < mn {
			mn = mag
		}
		if mag > mx {
			mx = mag
		}
	}
	h.Count, h.Sum, h.SumSq, h.Min, h.Max = count, sum, sumSq, mn, mx
}

// bin is the formula that defines a magnitude's bin among n over a range
// starting at lo and span decades wide.
func bin(mag float64, n int, lo, span float64) int {
	x := float64(n) * (math.Log10(mag+1e-300) - lo) / span
	switch {
	case x >= float64(n):
		return n - 1
	case x >= 0:
		return int(x)
	}
	return 0 // below the range, or NaN
}

// infKey is the bucket key of +Inf: every key below it belongs to a finite
// non-negative float64.
const infKey = 0x7ff0_0000_0000_0000 >> 49

// maxTableBins bounds the shapes binTable serves, so a bin fits a byte.
const maxTableBins = 256

// minTableBinWidth is the narrowest bin, in decades, binTable serves: just
// above log10(9/8) = 0.05115, the widest a bucket can be.
const minTableBinWidth = 0.0512

// binTable reads bin's value from two tables instead of a logarithm. A
// bucket is the float64s sharing an exponent and top three mantissa bits,
// keyed by math.Float64bits(mag)>>49; bucket[key] is the bin of the
// bucket's lower edge, and th[k] is the smallest float64 whose bin is at
// least k (th[0] = 0, th[n] = +Inf). A bucket spans at most log10(9/8)
// decades, so when every bin is wider than minTableBinWidth a bucket holds
// at most one threshold, and the bin of a magnitude in it is bucket[key],
// plus one if the magnitude reaches th[bucket[key]+1].
type binTable struct {
	bucket [infKey]uint8
	th     []float64
}

// binTableKey is the shape a binTable serves.
type binTableKey struct {
	n      int
	lo, hi float64
}

// binTables caches one table per histogram shape.
var binTables sync.Map // binTableKey -> *binTable

// binTableFor returns the table for n bins over [lo, hi], building it on
// first use, or nil when the shape's bins are too many or too narrow for
// the table to be exact.
func binTableFor(n int, lo, hi float64) *binTable {
	if n <= 0 || n > maxTableBins || !((hi-lo)/float64(n) > minTableBinWidth) {
		return nil
	}
	key := binTableKey{n, lo, hi}
	if t, ok := binTables.Load(key); ok {
		return t.(*binTable)
	}
	span := hi - lo
	t := &binTable{th: make([]float64, n+1)}
	// bin is monotone in the magnitude, so bisect over bit patterns for
	// each threshold; the pattern one past MaxFloat64 is +Inf, the
	// threshold of a bin no finite magnitude reaches.
	top := math.Float64bits(math.MaxFloat64) + 1
	for k := 1; k <= n; k++ {
		b, e := uint64(0), top
		for b < e {
			mid := b + (e-b)/2
			if bin(math.Float64frombits(mid), n, lo, span) >= k {
				e = mid
			} else {
				b = mid + 1
			}
		}
		t.th[k] = math.Float64frombits(b)
	}
	k := 0
	for key := range t.bucket {
		edge := math.Float64frombits(uint64(key) << 49)
		for t.th[k+1] <= edge {
			k++
		}
		t.bucket[key] = uint8(k)
	}
	v, _ := binTables.LoadOrStore(key, t)
	return v.(*binTable)
}

// Merge folds another histogram into h; the other histogram must have the
// same shape.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.Bins {
		h.Bins[i] += o.Bins[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.SumSq += o.SumSq
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Mean returns the mean magnitude.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Variance returns the magnitude variance.
func (h *Histogram) Variance() float64 {
	if h.Count == 0 {
		return 0
	}
	m := h.Mean()
	return h.SumSq/float64(h.Count) - m*m
}

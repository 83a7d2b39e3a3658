// Package kernels provides the data parallel computational kernels of the
// paper's evaluation applications: 2D FFT and statistical analysis
// (FFT-Hist), matched filtering, Doppler processing and CFAR detection
// (narrowband tracking radar), and disparity search (multibaseline
// stereo). All kernels take explicit index ranges so a runtime can
// partition them across workers.
package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFT computes the in-place fast Fourier transform of x: decimation in
// time, in radix-4 passes finished by one radix-2 pass when log2 len(x) is
// odd. len(x) must be a power of two; an empty x is left as is. Every
// transform of one length runs on a plan built once and cached: the
// bit-reversal swaps and each pass's twiddle factors from math.Sincos.
func FFT(x []complex128) error {
	p, err := planFor(len(x))
	if p == nil {
		return err
	}
	p.transform(x, false)
	return nil
}

// IFFT computes the in-place inverse FFT of x (normalized by 1/n).
func IFFT(x []complex128) error {
	p, err := planFor(len(x))
	if p == nil {
		return err
	}
	p.transform(x, true)
	inv := 1 / float64(len(x))
	for i, v := range x {
		x[i] = complex(real(v)*inv, imag(v)*inv)
	}
	return nil
}

// fftPlan is everything a length-n transform needs besides its data: the
// bit-reversal permutation as swap pairs, and the twiddle factors of every
// pass after the first, laid out pass by pass so each pass reads them
// contiguously. The transform runs radix-4 passes on sub-transforms of
// length h = 1, 4, 16, ... while 4h <= n, then, when log2 n is odd, one
// radix-2 pass with h = n/2. The first radix-4 pass's twiddles are all 1.
// Each later one reads the triples (w^k, w^2k, w^3k), k < h, for
// w = e^(-2πi/4h), stored as three runs of h factors; the radix-2 pass
// reads w^k, k < h, for w = e^(-2πi/n).
type fftPlan struct {
	n     int
	swaps [][2]int // index pairs (i, j), i < j, that bit reversal exchanges
	fwd   []complex128
	inv   []complex128 // the conjugates of fwd
	// packed recycles HalfSpectra's packed vector of n elements, so a warm
	// call allocates nothing.
	packed sync.Pool // *[]complex128
}

// plans caches one plan per transform length.
var plans sync.Map // int -> *fftPlan

// planFor returns the plan for length n, building it on first use. It
// returns a nil plan for n == 0 (nothing to do) and, with an error, for a
// length that is not a power of two.
func planFor(n int) (*fftPlan, error) {
	if n == 0 {
		return nil, nil
	}
	if n < 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("kernels: FFT length %d is not a power of two", n)
	}
	if p, ok := plans.Load(n); ok {
		return p.(*fftPlan), nil
	}
	p := &fftPlan{n: n}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, [2]int{i, j})
		}
	}
	twiddle := func(k, size int) {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(size))
		p.fwd = append(p.fwd, complex(cos, sin))
		p.inv = append(p.inv, complex(cos, -sin))
	}
	for h := 4; 4*h <= n; h *= 4 {
		for j := 1; j <= 3; j++ {
			for k := 0; k < h; k++ {
				twiddle(j*k, 4*h)
			}
		}
	}
	if bits.TrailingZeros(uint(n))%2 == 1 {
		for k := 0; k < n/2; k++ {
			twiddle(k, n)
		}
	}
	q, _ := plans.LoadOrStore(n, p)
	return q.(*fftPlan), nil
}

// radix4 is the butterfly of a radix-4 pass. Its inputs are the four
// points k, k+h, k+2h, k+3h of one group, the last three already
// multiplied by their twiddles w^2k, w^k and w^3k (bit reversal leaves the
// sub-transforms of residues 0, 2, 1, 3 in that order). Its outputs are
// the forward transform's points k, k+h, k+2h, k+3h. The inverse, whose
// twiddles are the conjugates, is the same butterfly with outputs 1 and 3
// stored the other way round.
func radix4(a0, a1, a2, a3 complex128) (y0, y1, y2, y3 complex128) {
	b0, b1 := a0+a1, a0-a1
	c0, c1 := a2+a3, a2-a3
	c1 = complex(imag(c1), -real(c1)) // c1 * -i
	return b0 + c0, b1 + c1, b0 - c0, b1 - c1
}

// transform runs the unnormalized forward or inverse transform of x in
// place; len(x) must be the plan's length. It is the FFT routine of every
// kernel on contiguous vectors; FFTCols runs the same swaps, passes and
// twiddles across the columns of a row band.
func (p *fftPlan) transform(x []complex128, inverse bool) {
	n := p.n
	x = x[:n]
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	tw, q1, q3 := p.fwd, 1, 3 // q1, q3: where outputs 1 and 3 go, in units of h
	if inverse {
		tw, q1, q3 = p.inv, 3, 1
	}
	h := 1
	if n >= 4 {
		for s := 0; s < n; s += 4 {
			y := x[s : s+4]
			y0, y1, y2, y3 := radix4(y[0], y[1], y[2], y[3])
			y[0], y[q1], y[2], y[q3] = y0, y1, y2, y3
		}
		h = 4
	}
	for ; 4*h <= n; h *= 4 {
		w1, w2, w3 := tw[:h], tw[h:2*h], tw[2*h:3*h]
		tw = tw[3*h:]
		for s := 0; s < n; s += 4 * h {
			g := x[s : s+4*h]
			p0, p1, p2, p3 := g[:h], g[h:2*h], g[2*h:3*h], g[3*h:]
			o1, o3 := g[q1*h:(q1+1)*h], g[q3*h:(q3+1)*h]
			p1, p2, p3, o1, o3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)], o1[:len(p0)], o3[:len(p0)]
			w1, w2, w3 := w1[:len(p0)], w2[:len(p0)], w3[:len(p0)]
			for k := range p0 {
				y0, y1, y2, y3 := radix4(p0[k], p1[k]*w2[k], p2[k]*w1[k], p3[k]*w3[k])
				p0[k], o1[k], p2[k], o3[k] = y0, y1, y2, y3
			}
		}
	}
	if h < n {
		lo, hi := x[:h], x[h:]
		for k, w := range tw[:h] {
			a, b := lo[k], hi[k]*w
			lo[k], hi[k] = a+b, a-b
		}
	}
}

// Matrix is a dense row-major complex matrix, the data set flowing through
// the FFT-Hist and radar pipelines.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewMatrix allocates a Rows x Cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns the element at (r, c).
func (m Matrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set stores v at (r, c).
func (m Matrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix.
func (m Matrix) Row(r int) []complex128 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// FFTRows transforms rows [r0, r1) of the matrix in place. It is the
// row-parallel unit of work of the paper's rowffts task.
func FFTRows(m Matrix, r0, r1 int) error {
	if r0 >= r1 {
		return nil
	}
	p, err := planFor(m.Cols)
	if p == nil {
		return err
	}
	for r := r0; r < r1; r++ {
		p.transform(m.Row(r), false)
	}
	return nil
}

// FFTCols transforms columns [c0, c1) of the matrix in place; radar's
// DopplerFFT runs it. It makes the plan's swaps and passes on whole row
// segments [c0, c1), in transform's order and with its twiddles, each
// read once per butterfly and applied across the band. Every column goes
// through the operations FFT makes on it, so each comes out bit-identical
// to FFT of that column whichever way the column range is split.
func FFTCols(m Matrix, c0, c1 int) error {
	if c0 >= c1 {
		return nil
	}
	p, err := planFor(m.Rows)
	if p == nil {
		return err
	}
	n, band := p.n, m.Data[c0:]
	row := func(r int) []complex128 { return band[r*m.Cols : r*m.Cols+c1-c0] }
	for _, s := range p.swaps {
		a, b := row(s[0]), row(s[1])
		b = b[:len(a)]
		for j := range a {
			a[j], b[j] = b[j], a[j]
		}
	}
	tw, h := p.fwd, 1
	if n >= 4 {
		for s := 0; s < n; s += 4 {
			p0, p1, p2, p3 := row(s), row(s+1), row(s+2), row(s+3)
			p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
			for j := range p0 {
				p0[j], p1[j], p2[j], p3[j] = radix4(p0[j], p1[j], p2[j], p3[j])
			}
		}
		h = 4
	}
	for ; 4*h <= n; h *= 4 {
		for s := 0; s < n; s += 4 * h {
			for k := 0; k < h; k++ {
				w1, w2, w3 := tw[k], tw[h+k], tw[2*h+k]
				p0, p1, p2, p3 := row(s+k), row(s+k+h), row(s+k+2*h), row(s+k+3*h)
				p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
				for j := range p0 {
					p0[j], p1[j], p2[j], p3[j] = radix4(p0[j], p1[j]*w2, p2[j]*w1, p3[j]*w3)
				}
			}
		}
		tw = tw[3*h:]
	}
	if h < n {
		for k, w := range tw[:h] {
			lo, hi := row(k), row(k+h)
			hi = hi[:len(lo)]
			for j, a := range lo {
				b := hi[j] * w
				lo[j], hi[j] = a+b, a-b
			}
		}
	}
	return nil
}

// HalfSpectra writes bins 0..n/2 of the FFT of the real parts of each of
// rows [r0, r1) of in into the same row of out, where n is in.Cols and out
// is in.Rows x (n/2+1). It only reads in. It is the colffts task of
// FFT-Hist, whose data sets hold a real matrix column by column: the bins
// past n/2 of a real sequence's transform are the conjugates of bins
// n/2-1 down to 1, so they add nothing.
//
// Rows go through the FFT routine two at a time: the transform Z of
// x + iy, for rows x and y, gives both half spectra,
//
//	X[k] = (Z[k] + conj Z[n-k]) / 2,    Y[k] = (Z[k] - conj Z[n-k]) / 2i,
//
// reading Z[n] as Z[0]. r0 and r1 must be even, so rows 2j and 2j+1 always
// pair up and any split of the rows gives the same output.
func HalfSpectra(in, out Matrix, r0, r1 int) error {
	n := in.Cols
	if out.Rows != in.Rows || out.Cols != n/2+1 {
		return fmt.Errorf("kernels: half spectra of %dx%d into %dx%d, want %dx%d",
			in.Rows, n, out.Rows, out.Cols, in.Rows, n/2+1)
	}
	if r0%2 != 0 || r1%2 != 0 {
		return fmt.Errorf("kernels: half spectra of rows [%d, %d), want even bounds", r0, r1)
	}
	if r0 >= r1 {
		return nil
	}
	p, err := planFor(n)
	if p == nil {
		return err
	}
	bp, _ := p.packed.Get().(*[]complex128)
	if bp == nil {
		buf := make([]complex128, n)
		bp = &buf
	}
	defer p.packed.Put(bp)
	z := *bp
	for r := r0; r < r1; r += 2 {
		x, y := in.Row(r), in.Row(r+1)
		for j := range z {
			z[j] = complex(real(x[j]), real(y[j]))
		}
		p.transform(z, false)
		xs, ys := out.Row(r), out.Row(r+1)
		for k := range xs {
			a, b := z[k], z[(n-k)&(n-1)]
			xs[k] = complex((real(a)+real(b))*0.5, (imag(a)-imag(b))*0.5)
			ys[k] = complex((imag(a)+imag(b))*0.5, (real(b)-real(a))*0.5)
		}
	}
	return nil
}

// Transpose writes the transpose of src into dst for the row band
// [r0, r1) of dst. dst must be Cols x Rows when src is Rows x Cols. It is
// the redistribution step between colffts and rowffts.
func Transpose(src, dst Matrix, r0, r1 int) error {
	if src.Rows != dst.Cols || src.Cols != dst.Rows {
		return fmt.Errorf("kernels: transpose shape mismatch %dx%d -> %dx%d",
			src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	for r := r0; r < r1; r++ {
		for c := 0; c < dst.Cols; c++ {
			dst.Data[r*dst.Cols+c] = src.Data[c*src.Cols+r]
		}
	}
	return nil
}

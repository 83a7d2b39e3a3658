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

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two; an empty x is left as is.
// Every transform of one length runs on a plan built once and cached: the
// bit-reversal swaps and each stage's twiddle factors from math.Sincos.
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
// stage from the third on, laid out stage by stage so each butterfly pass
// reads them contiguously. The first two stages' twiddles are 1 and -i.
type fftPlan struct {
	n     int
	swaps [][2]int // index pairs (i, j), i < j, that bit reversal exchanges
	fwd   []complex128
	inv   []complex128 // the conjugates of fwd
	// cols recycles scratch buffers of colBlock*n elements: FFTCols'
	// gather buffers of colBlock columns of length n, and HalfSpectra's
	// packed pair of rows. A warm call of either allocates nothing.
	cols sync.Pool // *[]complex128
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
	for size := 8; size <= n; size <<= 1 {
		for k := 0; k < size/2; k++ {
			sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(size))
			p.fwd = append(p.fwd, complex(cos, sin))
			p.inv = append(p.inv, complex(cos, -sin))
		}
	}
	q, _ := plans.LoadOrStore(n, p)
	return q.(*fftPlan), nil
}

// transform runs the unnormalized forward or inverse transform of x in
// place; len(x) must be the plan's length. It is the one FFT routine every
// kernel uses.
func (p *fftPlan) transform(x []complex128, inverse bool) {
	x = x[:p.n]
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	// Stages 1 and 2: butterflies of span 1 with twiddle 1, then of span
	// 2 with twiddles 1 and -i (+i for the inverse).
	for y := x; len(y) >= 2; y = y[2:] {
		a, b := y[0], y[1]
		y[0], y[1] = a+b, a-b
	}
	for y := x; len(y) >= 4; y = y[4:] {
		a0, a1, b0, c := y[0], y[1], y[2], y[3]
		b1 := complex(imag(c), -real(c)) // c * -i
		if inverse {
			b1 = -b1 // c * +i
		}
		y[0], y[2] = a0+b0, a0-b0
		y[1], y[3] = a1+b1, a1-b1
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	for half := 4; half < len(x); half <<= 1 {
		w := tw[:half]
		tw = tw[half:]
		for s := 0; s < len(x); s += 2 * half {
			lo, hi := x[s:], x[s+half:]
			lo, hi = lo[:len(w)], hi[:len(w)]
			for k, wk := range w {
				a, b := lo[k], hi[k]*wk
				lo[k], hi[k] = a+b, a-b
			}
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

// colBlock is how many adjacent columns FFTCols gathers per pass: four
// complex128s are one 64-byte cache line of each row.
const colBlock = 4

// FFTCols transforms columns [c0, c1) of the matrix in place (the colffts
// task). It gathers up to four adjacent columns per pass into a pooled
// scratch buffer, transforms each as a contiguous vector with the same
// routine FFT uses, and scatters them back, so every column's result is
// the same whichever way the column range is split.
func FFTCols(m Matrix, c0, c1 int) error {
	if c0 >= c1 {
		return nil
	}
	p, err := planFor(m.Rows)
	if p == nil {
		return err
	}
	rows := m.Rows
	bp := p.scratch()
	defer p.cols.Put(bp)
	buf := *bp
	for c := c0; c < c1; c += colBlock {
		w := min(colBlock, c1-c)
		for r := 0; r < rows; r++ {
			row := m.Data[r*m.Cols+c : r*m.Cols+c+w]
			for j, v := range row {
				buf[j*rows+r] = v
			}
		}
		for j := 0; j < w; j++ {
			p.transform(buf[j*rows:(j+1)*rows], false)
		}
		for r := 0; r < rows; r++ {
			row := m.Data[r*m.Cols+c : r*m.Cols+c+w]
			for j := range row {
				row[j] = buf[j*rows+r]
			}
		}
	}
	return nil
}

// scratch returns a buffer of colBlock*n elements from the plan's pool; the
// caller puts it back when done.
func (p *fftPlan) scratch() *[]complex128 {
	if bp, ok := p.cols.Get().(*[]complex128); ok {
		return bp
	}
	buf := make([]complex128, colBlock*p.n)
	return &buf
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
	bp := p.scratch()
	defer p.cols.Put(bp)
	z := (*bp)[:n]
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

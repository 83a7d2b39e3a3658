package kernels

import (
	"fmt"
	"math/cmplx"
)

// The narrowband tracking radar pipeline (one of the paper's evaluation
// programs from the CMU task parallel suite) processes a data cube of
// pulses x range gates per coherent processing interval:
//
//	matched filter (pulse compression) -> Doppler FFT -> CFAR detection
//
// Each stage is data parallel over range gates or pulses.

// MatchedFilter convolves rows (pulses) [r0, r1) of the cube with the
// reference chirp in the frequency domain: X <- IFFT(FFT(X) .* conj(FFT(chirp))).
// chirpFreq must already be the FFT of the chirp, length cube.Cols. The
// inverse transform's 1/n is folded into the conjugate-chirp multiply;
// with n a power of two that scaling is exact, so the result is the one
// FFT, multiply and IFFT give.
func MatchedFilter(cube Matrix, chirpFreq []complex128, r0, r1 int) error {
	if len(chirpFreq) != cube.Cols {
		return fmt.Errorf("kernels: chirp length %d != %d range gates", len(chirpFreq), cube.Cols)
	}
	if r0 >= r1 {
		return nil
	}
	p, err := planFor(cube.Cols)
	if p == nil {
		return err
	}
	inv := 1 / float64(cube.Cols)
	for r := r0; r < r1; r++ {
		row := cube.Row(r)
		p.transform(row, false)
		for i, c := range chirpFreq {
			v := row[i] * cmplx.Conj(c)
			row[i] = complex(real(v)*inv, imag(v)*inv)
		}
		p.transform(row, true)
	}
	return nil
}

// DopplerFFT transforms columns (range gates) [c0, c1) of the cube across
// pulses, turning pulse index into Doppler frequency.
func DopplerFFT(cube Matrix, c0, c1 int) error {
	return FFTCols(Matrix{Rows: cube.Rows, Cols: cube.Cols, Data: cube.Data}, c0, c1)
}

// Detection is a CFAR hit: a Doppler bin and range gate whose magnitude
// exceeds the scaled local noise estimate.
type Detection struct {
	Doppler, Range int
	Power          float64
	Threshold      float64
}

// CFAR performs cell-averaging constant-false-alarm-rate detection on
// rows (Doppler bins) [r0, r1) of the magnitude-squared cube: a cell is a
// detection when its power exceeds factor times the mean of the reference
// window (ref cells on each side, excluding guard cells).
//
// A cell's window sum adds its neighbours in a fixed order — the left
// then the right cell at each distance guard+1 ... guard+ref, from 0 —
// and its threshold is factor*sum/n over the n cells inside the row, so
// every threshold and detection is bit-identical to summing each cell's
// window on its own, NaN and infinite powers included. Cells whose whole
// window lies inside the row are summed four at a time, each in its own
// accumulator; the rest go one at a time with a bounds test per
// neighbour.
func CFAR(power Matrix, guard, ref int, factor float64, r0, r1 int) []Detection {
	cols := power.Cols
	// Cells in [lo, hi) see the whole window; the bounds on guard and ref
	// keep guard+ref from overflowing.
	lo, hi := cols, cols
	if guard >= 0 && ref > 0 && guard <= cols && ref <= cols && 2*(guard+ref) < cols {
		lo, hi = guard+ref, cols-guard-ref
	}
	var dets []Detection
	emit := func(r, c int, p, sum float64, n int) {
		if n == 0 {
			return
		}
		if thr := factor * sum / float64(n); p > thr {
			dets = append(dets, Detection{Doppler: r, Range: c, Power: p, Threshold: thr})
		}
	}
	for r := r0; r < r1; r++ {
		row := power.Row(r)
		c := 0
		for ; c < lo; c++ {
			sum, n := cfarCellSum(row, c, guard, ref)
			emit(r, c, real(row[c]), sum, n)
		}
		for ; c+4 <= hi; c += 4 {
			var s0, s1, s2, s3 float64
			for d := guard + 1; d <= guard+ref; d++ {
				l, rt := row[c-d:c-d+4], row[c+d:c+d+4]
				s0 = s0 + real(l[0]) + real(rt[0])
				s1 = s1 + real(l[1]) + real(rt[1])
				s2 = s2 + real(l[2]) + real(rt[2])
				s3 = s3 + real(l[3]) + real(rt[3])
			}
			p := row[c : c+4]
			emit(r, c, real(p[0]), s0, 2*ref)
			emit(r, c+1, real(p[1]), s1, 2*ref)
			emit(r, c+2, real(p[2]), s2, 2*ref)
			emit(r, c+3, real(p[3]), s3, 2*ref)
		}
		// Fewer than four interior cells may be left before the edge.
		for ; c < cols; c++ {
			sum, n := cfarCellSum(row, c, guard, ref)
			emit(r, c, real(row[c]), sum, n)
		}
	}
	return dets
}

// cfarCellSum sums cell c's window one neighbour at a time, testing
// each against the row's ends, and returns the sum and the number of
// window cells inside the row.
func cfarCellSum(row []complex128, c, guard, ref int) (sum float64, n int) {
	for d := guard + 1; d <= guard+ref; d++ {
		if c-d >= 0 {
			sum += real(row[c-d])
			n++
		}
		if c+d < len(row) {
			sum += real(row[c+d])
			n++
		}
	}
	return sum, n
}

// PowerRows replaces rows [r0, r1) with per-cell magnitude squared stored
// in the real part (imaginary zeroed), preparing for CFAR.
func PowerRows(cube Matrix, r0, r1 int) {
	for r := r0; r < r1; r++ {
		row := cube.Row(r)
		for i, v := range row {
			p := real(v)*real(v) + imag(v)*imag(v)
			row[i] = complex(p, 0)
		}
	}
}

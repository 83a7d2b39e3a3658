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
func CFAR(power Matrix, guard, ref int, factor float64, r0, r1 int) []Detection {
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

package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

func randMatrix(n int, seed int64) Matrix {
	return randCube(n, n, seed)
}

func randCube(rows, cols int, seed int64) Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// The 128 sizes are the served FFT-Hist shape (N=128); the 16x256 radar
// benchmarks are the served radar cube.

// BenchmarkFFT times one transform of each served length: 16 (radar's
// Doppler columns), 128 (FFT-Hist's rows and column pairs) and 256
// (radar's matched filter, whose inverse runs at 256 too). Each iteration
// transforms a fresh copy of one input: transforming in place again and
// again would scale it by sqrt(n) per pass, forward up to overflow and
// inverse down into subnormals, which run far slower.
func BenchmarkFFT(b *testing.B) {
	for _, c := range []struct {
		n       int
		inverse bool
	}{{16, false}, {128, false}, {256, false}, {256, true}} {
		name, transform := fmt.Sprintf("n=%d", c.n), FFT
		if c.inverse {
			name, transform = name+"/inverse", IFFT
		}
		b.Run(name, func(b *testing.B) {
			src, x := randCube(1, c.n, 6).Data, make([]complex128, c.n)
			b.SetBytes(int64(16 * c.n))
			for i := 0; i < b.N; i++ {
				copy(x, src)
				if err := transform(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFFTRows, BenchmarkFFTCols, BenchmarkMatchedFilter and
// BenchmarkDopplerFFT transform in place, so like BenchmarkFFT each
// iteration starts from a fresh copy of one input; the copy is part of
// the timed loop.
func BenchmarkFFTRows(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src, m := randMatrix(n, 1), NewMatrix(n, n)
			b.SetBytes(int64(16 * n * n))
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				if err := FFTRows(m, 0, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFFTCols(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src, m := randMatrix(n, 2), NewMatrix(n, n)
			b.SetBytes(int64(16 * n * n))
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				if err := FFTCols(m, 0, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHalfSpectra(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := randMatrix(n, 2)
			out := NewMatrix(n, n/2+1)
			b.SetBytes(int64(16 * n * n))
			for i := 0; i < b.N; i++ {
				if err := HalfSpectra(in, out, 0, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTranspose(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := randMatrix(n, 3)
			dst := NewMatrix(n, n)
			b.SetBytes(int64(16 * n * n))
			for i := 0; i < b.N; i++ {
				if err := Transpose(src, dst, 0, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHistogramAccumulate(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := randMatrix(n, 4)
			b.SetBytes(int64(16 * n * n))
			for i := 0; i < b.N; i++ {
				h := NewHistogram(64, -6, 6)
				h.Accumulate(m.Data)
			}
		})
	}
}

// BenchmarkHistogramHalfSpectrum reduces the n/2+1 rows of an n x n
// half spectrum, the hist task's share of one served data set.
func BenchmarkHistogramHalfSpectrum(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := randCube(n/2+1, n, 4)
			b.SetBytes(int64(16 * (n/2 + 1) * n))
			for i := 0; i < b.N; i++ {
				h := NewHistogram(64, -6, 6)
				h.AccumulateHalfSpectrum(m, 0, m.Rows)
			}
		})
	}
}

func BenchmarkMatchedFilter(b *testing.B) {
	for _, gates := range []int{256, 512} {
		b.Run(fmt.Sprintf("16x%d", gates), func(b *testing.B) {
			src, cube := randCube(16, gates, 7), NewMatrix(16, gates)
			chirp := make([]complex128, gates)
			for i := 0; i < 32; i++ {
				chirp[i] = complex(1, 0)
			}
			if err := FFT(chirp); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(16 * 16 * gates))
			for i := 0; i < b.N; i++ {
				copy(cube.Data, src.Data)
				if err := MatchedFilter(cube, chirp, 0, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDopplerFFT(b *testing.B) {
	src, cube := randCube(16, 256, 9), NewMatrix(16, 256)
	b.SetBytes(int64(16 * 16 * 256))
	for i := 0; i < b.N; i++ {
		copy(cube.Data, src.Data)
		if err := DopplerFFT(cube, 0, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFAR(b *testing.B) {
	for _, gates := range []int{256, 512} {
		b.Run(fmt.Sprintf("16x%d", gates), func(b *testing.B) {
			cube := randCube(16, gates, 8)
			PowerRows(cube, 0, 16)
			for i := 0; i < b.N; i++ {
				CFAR(cube, 2, 8, 12, 0, 16)
			}
		})
	}
}

func BenchmarkStereoDiffErr(b *testing.B) {
	const w, h = 256, 100
	rng := rand.New(rand.NewSource(5))
	ref, target := NewImage(w, h), NewImage(w, h)
	for i := range ref.Pix {
		ref.Pix[i] = rng.Float64()
		target.Pix[i] = rng.Float64()
	}
	diff, out := NewImage(w, h), NewImage(w, h)
	b.SetBytes(int64(8 * w * h))
	for i := 0; i < b.N; i++ {
		if err := DiffImage(ref, target, diff, 3, 0, h); err != nil {
			b.Fatal(err)
		}
		if err := ErrorImage(diff, out, 2, 0, h); err != nil {
			b.Fatal(err)
		}
	}
}

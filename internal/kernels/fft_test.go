package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownTransform(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
	// FFT of a constant is an impulse of size n at bin 0.
	y := make([]complex128, 8)
	for i := range y {
		y[i] = 1
	}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-8) > 1e-12 {
		t.Errorf("constant FFT[0] = %v, want 8", y[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Errorf("constant FFT[%d] = %v, want 0", i, y[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin 3 concentrates all energy there.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(i)/float64(n)))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := 0.0
		if i == 3 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("tone FFT[%d] magnitude %g, want %g", i, cmplx.Abs(v), want)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64, szExp uint8) bool {
		n := 1 << (szExp%9 + 1) // 2..512
		r := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			return false
		}
		if err := IFFT(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	n := 128
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Errorf("Parseval violated: time %g, freq %g", timeEnergy, freqEnergy)
	}
}

func TestFFTErrors(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if err := FFT(nil); err != nil {
		t.Errorf("empty FFT failed: %v", err)
	}
	if err := IFFT(make([]complex128, 6)); err == nil {
		t.Error("IFFT accepted a non-power-of-two")
	}
	if err := IFFT(nil); err != nil {
		t.Errorf("empty IFFT failed: %v", err)
	}
	m := NewMatrix(3, 5)
	if err := FFTRows(m, 0, 3); err == nil {
		t.Error("FFTRows accepted rows of length 5")
	}
	if err := FFTCols(m, 0, 5); err == nil {
		t.Error("FFTCols accepted columns of length 3")
	}
	if err := MatchedFilter(m, make([]complex128, 5), 0, 3); err == nil {
		t.Error("MatchedFilter accepted rows of length 5")
	}
	if err := FFTRows(NewMatrix(2, 0), 0, 2); err != nil {
		t.Errorf("FFTRows of empty rows failed: %v", err)
	}
	if err := FFTCols(NewMatrix(0, 2), 0, 2); err != nil {
		t.Errorf("FFTCols of empty columns failed: %v", err)
	}
	if err := HalfSpectra(m, NewMatrix(3, 3), 0, 2); err == nil {
		t.Error("HalfSpectra accepted rows of length 5")
	}
	if err := HalfSpectra(NewMatrix(2, 8), NewMatrix(2, 8), 0, 2); err == nil {
		t.Error("HalfSpectra accepted an output of full rows")
	}
	for _, band := range [][2]int{{0, 7}, {1, 4}, {3, 3}} {
		if err := HalfSpectra(NewMatrix(7, 8), NewMatrix(7, 5), band[0], band[1]); err == nil {
			t.Errorf("HalfSpectra accepted rows [%d, %d)", band[0], band[1])
		}
	}
}

func TestFFTRowsColsMatchFullTransform(t *testing.T) {
	// colffts then rowffts equals a full 2D FFT; verify a DC input.
	n := 16
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = 1
	}
	if err := FFTCols(m, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := FFTRows(m, 0, n); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(m.At(0, 0)-complex(float64(n*n), 0)) > 1e-9 {
		t.Errorf("2D DC bin = %v, want %d", m.At(0, 0), n*n)
	}
	for i := 1; i < n*n; i++ {
		if cmplx.Abs(m.Data[i]) > 1e-9 {
			t.Errorf("2D FFT leak at %d: %v", i, m.Data[i])
			break
		}
	}
}

func TestTranspose(t *testing.T) {
	src := NewMatrix(4, 8)
	for r := 0; r < 4; r++ {
		for c := 0; c < 8; c++ {
			src.Set(r, c, complex(float64(r), float64(c)))
		}
	}
	dst := NewMatrix(8, 4)
	if err := Transpose(src, dst, 0, 8); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 4; c++ {
			if dst.At(r, c) != src.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
	if err := Transpose(src, NewMatrix(3, 3), 0, 3); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewMatrix(8, 16)
	for i := range src.Data {
		src.Data[i] = complex(rng.Float64(), rng.Float64())
	}
	mid := NewMatrix(16, 8)
	back := NewMatrix(8, 16)
	if err := Transpose(src, mid, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := Transpose(mid, back, 0, 8); err != nil {
		t.Fatal(err)
	}
	for i := range src.Data {
		if src.Data[i] != back.Data[i] {
			t.Fatal("double transpose is not identity")
		}
	}
}

// dft is the O(n^2) reference transform: forward, or inverse with the 1/n
// normalization, with each twiddle from math.Sincos at the index reduced
// mod n.
func dft(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1
	}
	out := make([]complex128, n)
	for k := range out {
		var s complex128
		for j, v := range x {
			sin, cos := math.Sincos(sign * 2 * math.Pi * float64(j*k%n) / float64(n))
			s += v * complex(cos, sin)
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

// FuzzFFTMatchesDFT checks FFT and IFFT at every power-of-two length from 2
// to 1024 against the O(n^2) DFT: max|error| <= 1e-11 * sum|x_j|.
func FuzzFFTMatchesDFT(f *testing.F) {
	for e := uint8(0); e < 10; e++ {
		f.Add(int64(e), e, e%2 == 1, int8(0))
	}
	f.Add(int64(7), uint8(9), true, int8(-100))
	f.Add(int64(8), uint8(9), false, int8(100))
	f.Fuzz(func(t *testing.T, seed int64, logn uint8, inverse bool, exp int8) {
		n := 2 << (logn % 10)
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, float64(exp%120))
		x := make([]complex128, n)
		var norm float64
		for i := range x {
			x[i] = complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
			norm += cmplx.Abs(x[i])
		}
		want := dft(x, inverse)
		transform := FFT
		if inverse {
			transform = IFFT
		}
		if err := transform(x); err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range x {
			worst = math.Max(worst, cmplx.Abs(x[i]-want[i]))
		}
		if worst > 1e-11*norm {
			t.Errorf("n=%d inverse=%v: max error %g > 1e-11 * %g", n, inverse, worst, norm)
		}
	})
}

// TestFFTRowsColsMatchFFT pins that the matrix kernels run the same
// routine as FFT: every row and column comes out bit-identical to FFT on
// a copy of it.
func TestFFTRowsColsMatchFFT(t *testing.T) {
	src := randCube(16, 13, 9) // 13 columns: not a multiple of the 4-column block
	byCols := Matrix{Rows: 16, Cols: 13, Data: append([]complex128(nil), src.Data...)}
	byRows := Matrix{Rows: 13, Cols: 16, Data: append([]complex128(nil), src.Data...)}
	if err := FFTCols(byCols, 0, 13); err != nil {
		t.Fatal(err)
	}
	if err := FFTRows(byRows, 0, 13); err != nil {
		t.Fatal(err)
	}
	col := make([]complex128, 16)
	for c := 0; c < 13; c++ {
		for r := range col {
			col[r] = src.At(r, c)
		}
		if err := FFT(col); err != nil {
			t.Fatal(err)
		}
		for r, v := range col {
			if got := byCols.At(r, c); got != v {
				t.Fatalf("FFTCols (%d,%d) = %v, FFT of the column gives %v", r, c, got, v)
			}
		}
	}
	for r := 0; r < 13; r++ {
		row := append([]complex128(nil), src.Data[r*16:(r+1)*16]...)
		if err := FFT(row); err != nil {
			t.Fatal(err)
		}
		for c, v := range row {
			if got := byRows.At(r, c); got != v {
				t.Fatalf("FFTRows (%d,%d) = %v, FFT of the row gives %v", r, c, got, v)
			}
		}
	}
}

// TestFFTColsPartitionInvariant splits the column range at every pair of
// cut points, as any ParallelFor mapping may, and requires every split to
// be bit-identical to one band.
func TestFFTColsPartitionInvariant(t *testing.T) {
	for _, shape := range [][2]int{{16, 13}, {8, 32}} {
		rows, cols := shape[0], shape[1]
		src := randCube(rows, cols, int64(rows*cols))
		whole := Matrix{Rows: rows, Cols: cols, Data: append([]complex128(nil), src.Data...)}
		if err := FFTCols(whole, 0, cols); err != nil {
			t.Fatal(err)
		}
		for a := 0; a <= cols; a++ {
			for b := a; b <= cols; b++ {
				m := Matrix{Rows: rows, Cols: cols, Data: append([]complex128(nil), src.Data...)}
				for _, band := range [][2]int{{b, cols}, {0, a}, {a, b}} {
					if err := FFTCols(m, band[0], band[1]); err != nil {
						t.Fatal(err)
					}
				}
				for i := range m.Data {
					if m.Data[i] != whole.Data[i] {
						t.Fatalf("%dx%d split at %d,%d: element %d = %v, one band gives %v",
							rows, cols, a, b, i, m.Data[i], whole.Data[i])
					}
				}
			}
		}
	}
}

// FuzzFFTColsMatchFFT runs FFTCols on a random column band at every
// power-of-two row count from 2 to 1024 and requires each column of the
// band to be bit-identical to FFT of that column, and every other column
// to be left as it was.
func FuzzFFTColsMatchFFT(f *testing.F) {
	for e := uint8(0); e < 10; e++ {
		f.Add(int64(e), e, uint8(5+e), e%3, uint8(4+e), int8(0))
	}
	f.Add(int64(7), uint8(9), uint8(16), uint8(0), uint8(16), int8(-100))
	f.Add(int64(8), uint8(3), uint8(1), uint8(0), uint8(1), int8(100))
	f.Fuzz(func(t *testing.T, seed int64, logn, width, lo, hi uint8, exp int8) {
		rows, cols := 2<<(logn%10), 1+int(width%16)
		c0, c1 := int(lo)%(cols+1), int(hi)%(cols+1)
		if c0 > c1 {
			c0, c1 = c1, c0
		}
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, float64(exp%120))
		src := NewMatrix(rows, cols)
		for i := range src.Data {
			src.Data[i] = complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
		}
		m := Matrix{Rows: rows, Cols: cols, Data: append([]complex128(nil), src.Data...)}
		if err := FFTCols(m, c0, c1); err != nil {
			t.Fatal(err)
		}
		col := make([]complex128, rows)
		for c := 0; c < cols; c++ {
			for r := range col {
				col[r] = src.At(r, c)
			}
			if c0 <= c && c < c1 {
				if err := FFT(col); err != nil {
					t.Fatal(err)
				}
			}
			for r, v := range col {
				if got := m.At(r, c); got != v {
					t.Fatalf("%dx%d band [%d, %d): (%d,%d) = %v, want %v", rows, cols, c0, c1, r, c, got, v)
				}
			}
		}
	})
}

// TestFFTColsWarmAllocatesNothing pins the pooled scratch: a warm FFTCols
// call allocates nothing.
func TestFFTColsWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	m := randMatrix(128, 10)
	if allocs := testing.AllocsPerRun(50, func() {
		if err := FFTCols(m, 0, m.Cols); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm FFTCols allocates %v times per call, want 0", allocs)
	}
}

// randReal returns a rows x n matrix of random real values scaled by scale,
// with zero imaginary parts.
func randReal(rows, n int, scale float64, rng *rand.Rand) Matrix {
	m := NewMatrix(rows, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64()*scale, 0)
	}
	return m
}

// FuzzHalfSpectraMatchesFFT checks HalfSpectra at every power-of-two length
// from 2 to 1024, on an even number of random real rows, against FFT of
// each row: bins 0..n/2 within FuzzFFTMatchesDFT's bound of 1e-11 * sum|z|,
// where z = x + iy is the vector the row's pair goes through FFT as.
func FuzzHalfSpectraMatchesFFT(f *testing.F) {
	for e := uint8(0); e < 10; e++ {
		f.Add(int64(e), e, e%4, int8(0))
	}
	f.Add(int64(7), uint8(9), uint8(1), int8(-100))
	f.Add(int64(8), uint8(9), uint8(3), int8(100))
	f.Fuzz(func(t *testing.T, seed int64, logn, pairs uint8, exp int8) {
		n, rows := 2<<(logn%10), 2*(1+int(pairs%4))
		rng := rand.New(rand.NewSource(seed))
		in := randReal(rows, n, math.Pow(10, float64(exp%120)), rng)
		out := NewMatrix(rows, n/2+1)
		if err := HalfSpectra(in, out, 0, rows); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r += 2 {
			var norm float64
			for j := 0; j < n; j++ {
				norm += math.Hypot(real(in.At(r, j)), real(in.At(r+1, j)))
			}
			for _, row := range []int{r, r + 1} {
				want := append([]complex128(nil), in.Row(row)...)
				if err := FFT(want); err != nil {
					t.Fatal(err)
				}
				var worst float64
				for k, v := range out.Row(row) {
					worst = math.Max(worst, cmplx.Abs(v-want[k]))
				}
				if worst > 1e-11*norm {
					t.Errorf("n=%d row %d: max error %g > 1e-11 * %g", n, row, worst, norm)
				}
			}
		}
	})
}

// TestHalfSpectraSplitInvariant splits the rows at every pair of even cut
// points, as FFT-Hist's colffts does across workers, and requires every
// split to leave the input untouched and match one band bit for bit.
func TestHalfSpectraSplitInvariant(t *testing.T) {
	const rows = 8
	in := randReal(rows, 16, 1, rand.New(rand.NewSource(11)))
	orig := append([]complex128(nil), in.Data...)
	whole := NewMatrix(rows, 9)
	if err := HalfSpectra(in, whole, 0, rows); err != nil {
		t.Fatal(err)
	}
	for a := 0; a <= rows; a += 2 {
		for b := a; b <= rows; b += 2 {
			out := NewMatrix(rows, 9)
			for _, band := range [][2]int{{b, rows}, {0, a}, {a, b}} {
				if err := HalfSpectra(in, out, band[0], band[1]); err != nil {
					t.Fatal(err)
				}
			}
			for i := range out.Data {
				if out.Data[i] != whole.Data[i] {
					t.Fatalf("split at %d,%d: element %d = %v, one band gives %v",
						a, b, i, out.Data[i], whole.Data[i])
				}
			}
		}
	}
	for i := range orig {
		if in.Data[i] != orig[i] {
			t.Fatalf("HalfSpectra wrote its input at %d", i)
		}
	}
}

// TestHalfSpectraWarmAllocatesNothing pins the pooled scratch: a warm
// HalfSpectra call allocates nothing.
func TestHalfSpectraWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	in := randReal(128, 128, 1, rand.New(rand.NewSource(12)))
	out := NewMatrix(128, 65)
	if allocs := testing.AllocsPerRun(50, func() {
		if err := HalfSpectra(in, out, 0, 128); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm HalfSpectra allocates %v times per call, want 0", allocs)
	}
}

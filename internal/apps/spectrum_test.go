package apps

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
)

// fft2 is the reference spectrum of an FFT-Hist data set: the full complex
// 2D FFT of mat by the complex kernels, FFTRows on every row, Transpose,
// FFTRows again. FuzzFFTMatchesDFT pins FFT to the DFT.
func fft2(t testing.TB, mat kernels.Matrix) []complex128 {
	t.Helper()
	a := kernels.Matrix{Rows: mat.Rows, Cols: mat.Cols, Data: slices.Clone(mat.Data)}
	b := kernels.NewMatrix(mat.Cols, mat.Rows)
	if err := kernels.FFTRows(a, 0, a.Rows); err != nil {
		t.Fatal(err)
	}
	if err := kernels.Transpose(a, b, 0, b.Rows); err != nil {
		t.Fatal(err)
	}
	if err := kernels.FFTRows(b, 0, b.Rows); err != nil {
		t.Fatal(err)
	}
	return b.Data
}

// dft2 is the separable O(N^3) 2D DFT of mat: the DFT of every row, then
// of every column, each twiddle from math.Sincos at the index reduced mod
// the length.
func dft2(mat kernels.Matrix) []complex128 {
	rows, cols := mat.Rows, mat.Cols
	twiddle := func(jk, n int) complex128 {
		sin, cos := math.Sincos(-2 * math.Pi * float64(jk%n) / float64(n))
		return complex(cos, sin)
	}
	byRow := make([]complex128, rows*cols)
	for r := 0; r < rows; r++ {
		for l := 0; l < cols; l++ {
			var s complex128
			for c := 0; c < cols; c++ {
				s += mat.Data[r*cols+c] * twiddle(c*l, cols)
			}
			byRow[r*cols+l] = s
		}
	}
	out := make([]complex128, rows*cols)
	for k := 0; k < rows; k++ {
		for l := 0; l < cols; l++ {
			var s complex128
			for r := 0; r < rows; r++ {
				s += byRow[r*cols+l] * twiddle(r*k, rows)
			}
			out[k*cols+l] = s
		}
	}
	return out
}

// histBin is the bin formula kernels.Histogram documents.
func histBin(mag float64, n int, lo, hi float64) int {
	x := float64(n) * (math.Log10(mag+1e-300) - lo) / (hi - lo)
	switch {
	case x >= float64(n):
		return n - 1
	case x >= 0:
		return int(x)
	}
	return 0
}

// matchSpectrum checks a served histogram against the histogram of the
// reference spectrum spec, binned once per value. Counts must be equal;
// Sum, SumSq and Max within 1e-12 relative; Min within 1e-12 of the
// maximum, since it may be a rounding-noise magnitude. Bins must be equal,
// except that a reference magnitude whose bin changes within ±1e-12 of the
// maximum may land in any bin it reaches there: seeds with seed%7 == 1 put
// magnitudes of exactly 1 on the edge between bins 31 and 32.
func matchSpectrum(got *kernels.Histogram, spec []complex128) error {
	want := kernels.NewHistogram(len(got.Bins), got.Lo, got.Hi)
	want.Accumulate(spec)
	if got.Count != want.Count || len(got.Bins) != len(want.Bins) {
		return fmt.Errorf("count %d over %d bins, want %d over %d", got.Count, len(got.Bins), want.Count, len(want.Bins))
	}
	tol := 1e-12 * want.Max
	rel := func(g, w float64) bool { return math.Abs(g-w) <= 1e-12*math.Abs(w) }
	if !rel(got.Sum, want.Sum) || !rel(got.SumSq, want.SumSq) || !rel(got.Max, want.Max) ||
		math.Abs(got.Min-want.Min) > tol {
		return fmt.Errorf("sum %v sumsq %v min %v max %v, want %v %v %v %v",
			got.Sum, got.SumSq, got.Min, got.Max, want.Sum, want.SumSq, want.Min, want.Max)
	}
	// Each reference magnitude either has one bin within ±tol or may land
	// in any of the bins [lo, hi] it reaches there. Sweep the bins in
	// order, giving each served bin beyond its fixed magnitudes the open
	// magnitudes whose reach ends first: that places them all exactly
	// when some placement does.
	n := len(got.Bins)
	need := slices.Clone(got.Bins)
	type reach struct{ lo, hi int }
	var open []reach
	for _, v := range spec {
		mag := math.Hypot(real(v), imag(v))
		lo, hi := histBin(mag-tol, n, got.Lo, got.Hi), histBin(mag+tol, n, got.Lo, got.Hi)
		if lo == hi {
			need[lo]--
		} else {
			open = append(open, reach{lo, hi})
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].lo < open[j].lo })
	var pending []int // the last reachable bin of each open magnitude not yet placed
	for b := 0; b < n; b++ {
		for len(open) > 0 && open[0].lo == b {
			pending = append(pending, open[0].hi)
			open = open[1:]
		}
		sort.Ints(pending)
		if need[b] < 0 || need[b] > int64(len(pending)) {
			return fmt.Errorf("bin %d holds %d; the reference puts %d there for sure and %d more may land there",
				b, got.Bins[b], got.Bins[b]-need[b], len(pending))
		}
		pending = pending[need[b]:]
		if len(pending) > 0 && pending[0] == b {
			return fmt.Errorf("bins up to %d hold %d too few magnitudes", b, len(pending))
		}
	}
	return nil
}

// fftHistClusterings are the four clusterings of the 3-task FFT-Hist
// chain, each as its modules' first tasks followed by the chain's end:
// one module with the internal transpose, colffts | rowffts+hist across
// the transpose edge, colffts+rowffts | hist across the handoff edge, and
// three modules.
var fftHistClusterings = [][]int{{0, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3}}

// clustered maps c with modules [cuts[i], cuts[i+1]), each instance on
// procs workers, replicated reps times.
func clustered(c *model.Chain, cuts []int, procs, reps int) model.Mapping {
	m := model.Mapping{Chain: c}
	for i := 1; i < len(cuts); i++ {
		m.Modules = append(m.Modules, model.Module{Lo: cuts[i-1], Hi: cuts[i], Procs: procs, Replicas: reps})
	}
	return m
}

// TestFFTHistPipelineMatches2DDFT serves seeded inputs and a random real
// matrix on every clustering of the chain and checks each histogram
// against the separable 2D DFT of the decoded input.
func TestFFTHistPipelineMatches2DDFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64} {
		r := FFTHistRunner{N: n}
		codec := FFTHistCodec{Runner: r}
		rng := rand.New(rand.NewSource(int64(n)))
		data := make([]float64, n*n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		raw, err := json.Marshal(map[string][]float64{"data": data})
		if err != nil {
			t.Fatal(err)
		}
		inputs := []string{`{}`, `{"seed":1}`, `{"seed":-3}`, `{"seed":12}`, string(raw)}
		want := make([][]complex128, len(inputs))
		for i, in := range inputs {
			ds, err := codec.Decode(json.RawMessage(in))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = dft2(ds.(kernels.Matrix))
		}
		for _, cuts := range fftHistClusterings {
			a := servedApp{name: "ffthist", codec: codec, mapping: clustered(FFTHistStructure(n), cuts, 2, 2),
				input: func(i int) string { return inputs[i] }, result: histResult}
			pl, edges, err := r.Pipeline(a.mapping)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := a.serve(t, pl, edges, len(inputs), 2)
			for i, g := range got {
				h := g.result.(kernels.Histogram)
				if err := matchSpectrum(&h, want[i]); err != nil {
					t.Errorf("N=%d %s input %d: %v", n, a.mapping.String(), i, err)
				}
			}
		}
	}
}

// TestColFFTsLeavesItsInput runs the colffts stage as a stage attempt
// under a deadline runs it: its input must come out bit-identical and stay
// out of the pool, since an abandoned attempt and its retry may both still
// read it.
func TestColFFTsLeavesItsInput(t *testing.T) {
	r := FFTHistRunner{N: 16}
	g, err := fxrt.NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := r.Input(5)
	orig := slices.Clone(in.Data)
	ctx := &fxrt.StageCtx{Group: g, Rec: fxrt.NewRecorder(), Deadline: time.Second}
	if _, err := r.runTasks(ctx, 0, 1, in); err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Data {
		w := orig[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			t.Fatalf("colffts wrote its input: element %d = %v, was %v", i, v, w)
		}
	}
	pool := poolFor(len(in.Data))
	for bp := pool.get(); bp != nil; bp = pool.get() {
		if &(*bp)[0] == &in.Data[0] {
			t.Fatal("colffts under a deadline recycled its input")
		}
	}
}

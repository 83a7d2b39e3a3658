package apps

import (
	"sync"

	"pipemap/internal/kernels"
)

// Serving-path buffer recycling. The ingestion data plane decodes, runs and
// encodes one data set per request; recycling the per-request matrices
// keeps that loop from feeding the collector. A matrix returns to its pool
// only at the end of its life (DESIGN.md §11):
//
//   - a radar data set's two cubes, when RadarCodec.Encode — the data set's
//     last reader — has read it, unless a stage attempt under a deadline
//     touched it;
//   - an FFT-Hist transpose source, through fxrt.Edge.Release once the
//     receiving stage's attempt has succeeded (never under deadlines);
//   - an FFT-Hist transpose destination, once the hist task of the same
//     attempt has reduced it to a histogram.

// matrixPools holds one pool of backing arrays per element count.
var matrixPools sync.Map // int -> *sync.Pool of *[]complex128

func matrixPool(n int) *sync.Pool {
	if p, ok := matrixPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := matrixPools.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}

// getMatrix returns a rows x cols matrix, recycled when one of that size is
// pooled. A recycled matrix holds stale values: the caller must overwrite
// every element.
func getMatrix(rows, cols int) kernels.Matrix {
	if buf, ok := matrixPool(rows * cols).Get().(*[]complex128); ok {
		return kernels.Matrix{Rows: rows, Cols: cols, Data: *buf}
	}
	return kernels.NewMatrix(rows, cols)
}

// putMatrix returns m's backing array to its pool. Nothing may use m
// afterwards.
func putMatrix(m kernels.Matrix) {
	if len(m.Data) == 0 {
		return
	}
	buf := m.Data
	matrixPool(len(buf)).Put(&buf)
}

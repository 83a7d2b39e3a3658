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
//   - an FFT-Hist stage's input — the decoded matrix at colffts, or the
//     transformed rows a module starting at hist receives — once the
//     stage's attempt has succeeded, unless the stage has a deadline;
//   - an FFT-Hist transpose source (colffts' half spectra), through
//     fxrt.Edge.Release once the receiving stage's attempt has succeeded
//     (never under deadlines);
//   - a matrix one FFT-Hist attempt made for itself — the half spectra
//     ahead of an internal transpose, a transpose destination that the
//     attempt's hist task has reduced — as soon as the attempt is done
//     with it, deadline or not.

// matrixPool recycles the backing arrays of one element count. Up to
// maxIdle idle arrays wait on a free list that every goroutine reaches;
// the rest go to a sync.Pool, which the collector empties. A sync.Pool
// alone can miss while it holds an idle array: it keeps one array per
// processor where a Get on another processor cannot reach it, so a
// request whose stages put an array back on one processor and take it on
// another would allocate a whole matrix with one pooled.
type matrixPool struct {
	free     chan *[]complex128 // capacity maxIdle
	overflow sync.Pool          // *[]complex128
}

// maxIdle is how many idle arrays of each element count outlive a
// collection. A request holds at most two arrays of one size at a time
// (FFT-Hist's half spectra and their transpose, radar's two cubes), so
// four serve two requests in flight without the sync.Pool.
const maxIdle = 4

// matrixPools holds one pool per element count.
var matrixPools sync.Map // int -> *matrixPool

func poolFor(n int) *matrixPool {
	if p, ok := matrixPools.Load(n); ok {
		return p.(*matrixPool)
	}
	p, _ := matrixPools.LoadOrStore(n, &matrixPool{free: make(chan *[]complex128, maxIdle)})
	return p.(*matrixPool)
}

// get takes an idle array, or returns nil when there is none.
func (p *matrixPool) get() *[]complex128 {
	select {
	case buf := <-p.free:
		return buf
	default:
		buf, _ := p.overflow.Get().(*[]complex128)
		return buf
	}
}

// put makes buf idle.
func (p *matrixPool) put(buf *[]complex128) {
	select {
	case p.free <- buf:
	default:
		p.overflow.Put(buf)
	}
}

// getMatrix returns a rows x cols matrix, recycled when one of that size is
// pooled. A recycled matrix holds stale values: the caller must overwrite
// every element.
func getMatrix(rows, cols int) kernels.Matrix {
	if buf := poolFor(rows * cols).get(); buf != nil {
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
	poolFor(len(buf)).put(&buf)
}

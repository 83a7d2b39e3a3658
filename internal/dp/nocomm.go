package dp

import (
	"container/heap"
	"fmt"

	"pipemap/internal/model"
)

// AssignNoComm solves optimal processor assignment for the special case
// the paper opens section 3.1 with: when communication time is negligible
// the response time of each task depends only on its own processors, and
// the optimum is found in O(Pk) time (O(P log k) here) by repeatedly
// giving a processor to the slowest task. Communication costs in the
// chain are ignored; the result is optimal for the comm-free relaxation
// and a (possibly loose) mapping otherwise. Replication is applied
// maximally, as in MapChain; the costs are read from the span tables at
// singleton spans.
func AssignNoComm(c *model.Chain, pl model.Platform) (model.Mapping, error) {
	t, err := newTables(c, pl, Options{DisableClustering: true}, nil)
	if err != nil {
		return model.Mapping{}, err
	}
	k, P := t.k, t.P
	// base[i] indexes task i's singleton span in the per-count tables.
	base := make([]int, k)
	raw := make([]int, k)
	used := 0
	for i := 0; i < k; i++ {
		span := i*(k+1) + i + 1
		if t.minP[span] > P {
			return model.Mapping{}, fmt.Errorf("dp: task %q does not fit on %d processors",
				c.Tasks[i].Name, P)
		}
		base[i] = span * t.stride
		raw[i] = t.minP[span]
		used += raw[i]
	}
	if used > P {
		return model.Mapping{}, fmt.Errorf("dp: chain needs at least %d processors, platform has %d", used, P)
	}
	// Effective response of task i at raw processors p (exec only).
	resp := func(i, p int) float64 {
		return t.execEff[base[i]+p] / float64(t.rep[base[i]+p])
	}

	h := &respHeap{}
	for i := 0; i < k; i++ {
		heap.Push(h, respItem{task: i, resp: resp(i, raw[i])})
	}
	best := append([]int(nil), raw...)
	bestPeriod := h.peek().resp
	for used < P {
		slow := heap.Pop(h).(respItem)
		i := slow.task
		raw[i]++
		used++
		heap.Push(h, respItem{task: i, resp: resp(i, raw[i])})
		if period := h.peek().resp; period < bestPeriod {
			bestPeriod = period
			copy(best, raw)
		}
	}
	if bestPeriod <= 0 {
		return model.Mapping{}, fmt.Errorf("dp: degenerate chain with zero response times")
	}

	m := model.Mapping{Chain: c, Modules: make([]model.Module, k)}
	for i := 0; i < k; i++ {
		m.Modules[i] = model.Module{
			Lo: i, Hi: i + 1,
			Procs:    int(t.eff[base[i]+best[i]]),
			Replicas: int(t.rep[base[i]+best[i]]),
		}
	}
	return m, nil
}

// respHeap is a max-heap of per-task effective response times: the root
// is the bottleneck task.
type respHeap []respItem

type respItem struct {
	task int
	resp float64
}

func (h respHeap) Len() int            { return len(h) }
func (h respHeap) Less(i, j int) bool  { return h[i].resp > h[j].resp }
func (h respHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *respHeap) Push(x interface{}) { *h = append(*h, x.(respItem)) }
func (h *respHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
func (h respHeap) peek() respItem { return h[0] }

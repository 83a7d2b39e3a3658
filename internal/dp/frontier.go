package dp

import (
	"fmt"

	"pipemap/internal/model"
)

// Frontier reads the optimal mapping at every processor budget from the
// tables of the last Solve or Resolve, without solving again: entry b
// (0 <= b <= P) is exactly the mapping a fresh MapChain on b processors
// returns, and has nil Modules where that solve fails.
//
// One table serves every budget because the DP indexes its states by the
// processors pt a prefix holds. A state with pt <= b has the same
// predecessors, value, choice and dominance fate in the table for P as in
// the table for b: each of them is decided by states with fewer
// processors only. Frontier walks the close layers' live states in scan's
// order (l ascending, then live order). A state that closes with value v
// wins budgets b = pt, pt+1, ... while v < best[b], and stops at the first
// budget it does not beat: best is non-increasing in b, so no later budget
// can prefer it. At every budget that reproduces scan's strict-< tie-break
// among the states it can afford.
//
// Each distinct winner is reconstructed once; budgets it wins share one
// module slice, which the solver does not retain. Frontier never modifies
// the tables, and Solve and Resolve never run it.
func (s *Solver) Frontier() ([]model.Mapping, error) {
	if !s.solved {
		return nil, fmt.Errorf("dp: frontier of a solver that has not solved")
	}
	P := s.P
	best := make([]float64, P+1)
	fill(best, inf)
	// win[b] is the winning close state of budget b; l == 0 while no
	// state fits in b processors.
	type closeState struct{ l, pt, pcur, cls int }
	win := make([]closeState, P+1)
	s.closeStates(func(l, pt, pcur, c int, v float64) {
		for b := pt; b <= P && v < best[b]; b++ {
			best[b] = v
			win[b] = closeState{l, pt, pcur, c}
		}
	})

	// A state wins a run of consecutive budgets: a later state can only
	// take over a suffix of that run or all of it.
	out := make([]model.Mapping, P+1)
	for b, w := range win {
		out[b].Chain = s.chain
		switch {
		case w.l == 0:
		case b > 0 && w == win[b-1]:
			out[b].Modules = out[b-1].Modules
		default:
			out[b].Modules = s.reconstruct(nil, w.l, w.pt, w.pcur, w.cls)
		}
	}
	return out, nil
}

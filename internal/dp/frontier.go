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
	k, P, stride := s.k, s.P, s.stride
	best := make([]float64, P+1)
	fill(best, inf)
	// win[b] is the winning close state of budget b; l == 0 while no
	// state fits in b processors.
	type closeState struct{ l, pt, pcur, cls int }
	win := make([]closeState, P+1)
	for l := 1; l <= k; l++ {
		a := k - l
		if s.minP[a*(k+1)+k] > P {
			continue
		}
		vals := s.layer(k, l)
		prev := s.effVals[a]
		nE := len(prev)
		spanBase := (a*(k+1) + k) * stride
		var inTab []float64
		if a > 0 {
			inTab = s.ecomV[(a-1)*stride*stride:]
		}
		for _, idx32 := range s.live[s.ord(k, l)] {
			idx := int(idx32)
			c := idx % nE
			rest := idx / nE
			pcur := rest % stride
			pt := rest / stride
			e := int(s.eff[spanBase+pcur])
			if e == 0 {
				continue
			}
			v := vals[idx]
			in := 0.0
			if inTab != nil {
				in = inTab[prev[c]*stride+e]
			}
			resp := (in + s.execEff[spanBase+pcur]) / float64(s.rep[spanBase+pcur])
			if resp > v {
				v = resp
			}
			for b := pt; b <= P && v < best[b]; b++ {
				best[b] = v
				win[b] = closeState{l, pt, pcur, c}
			}
		}
	}

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
			out[b].Modules = s.reconstruct(w.l, w.pt, w.pcur, w.cls)
		}
	}
	return out, nil
}

// reconstruct follows the choice pointers from close state (k, l, pt,
// pcur, cls) back to the first module and returns the modules left to
// right in a new slice.
func (s *Solver) reconstruct(l, pt, pcur, c int) []model.Module {
	k, stride := s.k, s.stride
	var mods []model.Module
	b := k
	for {
		a := b - l
		spanBase := (a*(k+1) + b) * stride
		mods = append(mods, model.Module{
			Lo: a, Hi: b,
			Procs:    int(s.eff[spanBase+pcur]),
			Replicas: int(s.rep[spanBase+pcur]),
		})
		if a == 0 {
			break
		}
		at := s.off[s.ord(b, l)] + s.vidx(pt, pcur, c, len(s.effVals[a]))
		pl, pp, pc := choiceUnpack(s.choice[at])
		b, l, pt, pcur, c = a, pl, pt-pcur, pp, pc
	}
	for i, j := 0, len(mods)-1; i < j; i, j = i+1, j-1 {
		mods[i], mods[j] = mods[j], mods[i]
	}
	return mods
}

package dp

import (
	"fmt"

	"pipemap/internal/model"
)

// MinLatency computes the mapping that minimizes one data set's pipeline
// traversal time — the objective Ramaswamy et al. optimize and the one
// the paper defers to Vondran's thesis. Unlike throughput, latency
// decomposes as a sum:
//
//	latency = sum_i exec_i(p_i) + 2 * sum_edges ecom(p_i, p_{i+1})
//
// (each inter-module transfer is charged to both the sender's and the
// receiver's response), so the DP needs only the processor count of the
// last placed module in its state and runs in O(k^2 P^3) time. Modules
// are single-instance: replication can only increase latency (smaller
// instances, same per-data-set path), so the latency optimum never
// replicates. Internal redistributions inside a module are part of its
// composed execution cost. The DP reads the span tables the Solver
// builds, tabulated without replication.
func MinLatency(c *model.Chain, pl model.Platform) (model.Mapping, error) {
	t, err := newTables(c, pl, Options{DisableReplication: true}, nil)
	if err != nil {
		return model.Mapping{}, err
	}
	k, P, stride := t.k, t.P, t.stride

	// L[b][p][u] = minimal latency of tasks [0, b) when the module ending
	// at b holds p processors and u processors are used in total.
	// Flattened as (b*(P+1)+p)*(P+1)+u.
	size := (k + 1) * stride * stride
	idx := func(b, p, u int) int { return (b*stride+p)*stride + u }
	L := make([]float64, size)
	fill(L, inf)
	type choiceRec struct{ a, pPrev, uPrev int }
	choice := make([]choiceRec, size)

	// Seed: first module [0, b) with p processors. Without replication a
	// module's instance holds all p raw processors.
	for b := 1; b <= k; b++ {
		min := t.minP[0*(k+1)+b]
		if min > P {
			continue
		}
		exec := t.execEff[(0*(k+1)+b)*stride:]
		for p := min; p <= P; p++ {
			v := exec[p]
			i := idx(b, p, p)
			if v < L[i] {
				L[i] = v
				choice[i] = choiceRec{a: -1}
			}
		}
	}

	// Extend: module [b, b2) with p2 processors after a module ending at b
	// with p processors.
	for b := 1; b < k; b++ {
		for b2 := b + 1; b2 <= k; b2++ {
			min2 := t.minP[b*(k+1)+b2]
			if min2 > P {
				continue
			}
			exec2 := t.execEff[(b*(k+1)+b2)*stride:]
			edge := t.ecomV[(b-1)*stride*stride:]
			for p := 1; p <= P; p++ {
				for u := p; u <= P; u++ {
					v := L[idx(b, p, u)]
					if v == inf {
						continue
					}
					for p2 := min2; p2 <= P-u; p2++ {
						nv := v + exec2[p2] + 2*edge[p*stride+p2]
						ni := idx(b2, p2, u+p2)
						if nv < L[ni] {
							L[ni] = nv
							choice[ni] = choiceRec{a: b, pPrev: p, uPrev: u}
						}
					}
				}
			}
		}
	}

	best, bestP, bestU := inf, -1, -1
	for p := 1; p <= P; p++ {
		for u := p; u <= P; u++ {
			if v := L[idx(k, p, u)]; v < best {
				best, bestP, bestU = v, p, u
			}
		}
	}
	if bestP < 0 {
		return model.Mapping{}, fmt.Errorf("dp: no feasible mapping of %d tasks onto %d processors", k, P)
	}

	// Reconstruct right to left.
	var rev []model.Module
	b, p, u := k, bestP, bestU
	for {
		ch := choice[idx(b, p, u)]
		a := ch.a
		if a == -1 {
			a = 0
		}
		rev = append(rev, model.Module{Lo: a, Hi: b, Procs: p, Replicas: 1})
		if ch.a == -1 {
			break
		}
		b, p, u = ch.a, ch.pPrev, ch.uPrev
	}
	mods := make([]model.Module, len(rev))
	for i := range rev {
		mods[i] = rev[len(rev)-1-i]
	}
	return model.Mapping{Chain: c, Modules: mods}, nil
}

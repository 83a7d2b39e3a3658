package fleet

import (
	"fmt"
	"math/rand"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/machine"
	"pipemap/internal/model"
)

// freshSolve is the uncached reference every placement must equal:
// core.Map under Auto.
func freshSolve(chain *model.Chain, pl model.Platform) (core.Result, error) {
	return core.Map(core.Request{Chain: chain, Platform: pl})
}

// solveAtCap hashes (chain, pl) and solves it through cache with pl as
// both the cap and the budget.
func solveAtCap(cache *Cache, chain *model.Chain, pl model.Platform) (core.Result, string, error) {
	sig, key := adapt.CanonicalKeys(chain, pl)
	return cache.Solve(chain, pl, sig, key, pl.Procs)
}

// genChain builds a random but deterministic (per rng) chain of k tasks
// with polynomial cost models, a mix of replicable and pinned tasks, and
// occasional explicit MinProcs constraints.
func genChain(rng *rand.Rand, k int) *model.Chain {
	c := &model.Chain{
		Tasks: make([]model.Task, k),
		ICom:  make([]model.CostFunc, k-1),
		ECom:  make([]model.CommFunc, k-1),
	}
	for i := 0; i < k; i++ {
		c.Tasks[i] = model.Task{
			Name:       fmt.Sprintf("t%d", i),
			Exec:       model.PolyExec{C1: rng.Float64() * 0.01, C2: 0.5 + rng.Float64()*4, C3: rng.Float64() * 1e-4},
			Replicable: rng.Intn(3) != 0,
		}
		if rng.Intn(4) == 0 {
			c.Tasks[i].MinProcs = 1 + rng.Intn(3)
		}
	}
	for i := 0; i < k-1; i++ {
		c.ICom[i] = model.PolyExec{C2: rng.Float64() * 0.2}
		c.ECom[i] = model.PolyComm{C1: rng.Float64() * 0.01, C2: rng.Float64() * 0.1, C3: rng.Float64() * 0.1}
	}
	return c
}

// fixedChain builds a deterministic 3-task chain; two calls return
// distinct *Chain values with identical costs, so their canonical spec
// keys collide by construction (solve-once-place-many).
func fixedChain() *model.Chain {
	return &model.Chain{
		Tasks: []model.Task{
			{Name: "src", Exec: model.PolyExec{C2: 4}, Replicable: true},
			{Name: "mid", Exec: model.PolyExec{C1: 0.02, C2: 9}, Replicable: true},
			{Name: "sink", Exec: model.PolyExec{C2: 2}, Replicable: true},
		},
		ICom: []model.CostFunc{model.PolyExec{C2: 0.3}, model.PolyExec{C2: 0.2}},
		ECom: []model.CommFunc{model.PolyComm{C1: 0.01}, model.PolyComm{C1: 0.01}},
	}
}

// lineGrid is the degenerate 1xN grid used to machine-check flat-pool
// placements: any module set packs iff total processors fit.
func lineGrid(procs int) machine.Grid {
	return machine.Grid{Rows: 1, Cols: procs}
}

// checkPlacements asserts the fleet's externally visible invariants from
// its own snapshots: allocations sum within the pool, every mapping is
// model-valid at its allocation and machine-feasible (directly via
// machine.Feasible, not scheduler bookkeeping), and in grid mode the
// regions are in-bounds, disjoint rectangles. It returns an error naming
// the first violation.
func checkPlacements(f *Fleet, grid machine.Grid) error {
	st := f.Stats()
	ps := f.Placements()
	if len(ps) != st.Placed {
		return fmt.Errorf("stats report %d placed, snapshot has %d", st.Placed, len(ps))
	}
	used := 0
	for _, p := range ps {
		used += p.Alloc
	}
	if used > st.PoolProcs {
		return fmt.Errorf("over-allocation: sum of allocations %d > pool %d", used, st.PoolProcs)
	}
	if used != st.UsedProcs {
		return fmt.Errorf("stats report %d used, placements sum to %d", st.UsedProcs, used)
	}
	gridMode := grid.Rows != 0
	occupied := map[[2]int]int64{}
	for _, p := range ps {
		pl := model.Platform{Procs: p.Alloc}
		m := p.Mapping
		if err := m.Validate(pl); err != nil {
			return fmt.Errorf("pipeline %d (%s): invalid mapping at alloc %d: %v", p.ID, p.Tenant, p.Alloc, err)
		}
		if !gridMode {
			if _, ok := machine.Feasible(m, machine.Constraints{Grid: lineGrid(p.Alloc)}); !ok {
				return fmt.Errorf("pipeline %d (%s): mapping not machine-feasible in %d processors", p.ID, p.Tenant, p.Alloc)
			}
			continue
		}
		r := p.Region
		if r.H < 1 || r.W < 1 || r.Row < 0 || r.Col < 0 ||
			r.Row+r.H > grid.Rows || r.Col+r.W > grid.Cols {
			return fmt.Errorf("pipeline %d (%s): region %+v outside %dx%d grid", p.ID, p.Tenant, r, grid.Rows, grid.Cols)
		}
		if r.H*r.W != p.Alloc {
			return fmt.Errorf("pipeline %d (%s): region %+v area != alloc %d", p.ID, p.Tenant, r, p.Alloc)
		}
		for row := r.Row; row < r.Row+r.H; row++ {
			for col := r.Col; col < r.Col+r.W; col++ {
				if prev, taken := occupied[[2]int{row, col}]; taken {
					return fmt.Errorf("pipelines %d and %d overlap at cell (%d,%d)", prev, p.ID, row, col)
				}
				occupied[[2]int{row, col}] = p.ID
			}
		}
		if _, ok := machine.Feasible(m, machine.Constraints{Grid: machine.Grid{Rows: r.H, Cols: r.W}}); !ok {
			return fmt.Errorf("pipeline %d (%s): mapping not machine-feasible in its %dx%d region", p.ID, p.Tenant, r.H, r.W)
		}
	}
	return nil
}

// checkAccounting asserts the quiesce invariant
// admitted == placed + departed + evicted.
func checkAccounting(st Stats) error {
	if st.Admitted != int64(st.Placed)+st.Departed+st.Evicted {
		return fmt.Errorf("accounting: admitted %d != placed %d + departed %d + evicted %d",
			st.Admitted, st.Placed, st.Departed, st.Evicted)
	}
	return nil
}

package dp

import (
	"math/rand"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// commFreeChain builds a random chain with zero communication costs.
func commFreeChain(rng *rand.Rand, k int) *model.Chain {
	c := &model.Chain{
		Tasks: make([]model.Task, k),
		ICom:  make([]model.CostFunc, k-1),
		ECom:  make([]model.CommFunc, k-1),
	}
	for i := 0; i < k; i++ {
		c.Tasks[i] = model.Task{
			Name:       string(rune('a' + i)),
			Exec:       model.PolyExec{C1: rng.Float64() * 0.1, C2: 0.5 + rng.Float64()*8},
			Replicable: rng.Float64() < 0.5,
		}
	}
	for i := 0; i < k-1; i++ {
		c.ICom[i] = model.ZeroExec()
		c.ECom[i] = model.ZeroComm()
	}
	return c
}

func TestAssignNoCommMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(4)
		c := commFreeChain(rng, k)
		pl := model.Platform{Procs: k + rng.Intn(16)}
		fast, err := AssignNoComm(c, pl)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := MapChain(c, pl, replicatedOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(fast.Throughput(), exact.Throughput(), 1e-9) {
			t.Errorf("trial %d: no-comm fast %g != DP %g\n fast: %v\n dp:   %v",
				trial, fast.Throughput(), exact.Throughput(), &fast, &exact)
		}
		if err := fast.Validate(pl); err != nil {
			t.Errorf("trial %d: invalid mapping: %v", trial, err)
		}
	}
}

func TestAssignNoCommNonMonotoneExec(t *testing.T) {
	// A cliff in one task's cost function: the slowest-task greedy with
	// best-ever tracking still finds the comm-free optimum.
	cliff, err := model.NewTableCost(map[int]float64{1: 6, 5: 6, 6: 1, 12: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "smooth", Exec: model.PolyExec{C2: 8}},
			{Name: "cliff", Exec: cliff},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	pl := model.Platform{Procs: 10}
	fast, err := AssignNoComm(c, pl)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := MapChain(c, pl, assignOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(fast.Throughput(), exact.Throughput(), 1e-9) {
		t.Errorf("no-comm fast %g != DP %g on the cliff chain", fast.Throughput(), exact.Throughput())
	}
}

func TestAssignNoCommErrors(t *testing.T) {
	c := commFreeChain(rand.New(rand.NewSource(1)), 3)
	if _, err := AssignNoComm(c, model.Platform{Procs: 0}); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := AssignNoComm(&model.Chain{}, model.Platform{Procs: 4}); err == nil {
		t.Error("empty chain accepted")
	}
	// Task b needs 5 processors on its own: it cannot fit 4, and with a
	// and c at one processor each the chain needs 7 of 6.
	c.Tasks[1].MinProcs = 5
	if _, err := AssignNoComm(c, model.Platform{Procs: 4}); err == nil {
		t.Error("task that cannot fit accepted")
	}
	if _, err := AssignNoComm(c, model.Platform{Procs: 6}); err == nil {
		t.Error("chain whose task minima exceed P accepted")
	}
	if _, err := AssignNoComm(c, model.Platform{Procs: 7}); err != nil {
		t.Errorf("chain fitting its task minima exactly: %v", err)
	}
}

func BenchmarkAssignNoComm(b *testing.B) {
	c := commFreeChain(rand.New(rand.NewSource(2)), 8)
	pl := model.Platform{Procs: 1024}
	for i := 0; i < b.N; i++ {
		if _, err := AssignNoComm(c, pl); err != nil {
			b.Fatal(err)
		}
	}
}

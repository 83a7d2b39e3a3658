package greedy

import (
	"math/rand"
	"reflect"
	"testing"

	"pipemap/internal/dp"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/testutil"
)

// TestMapNeverBeatsDP is the end-to-end optimality bound: the full greedy
// pipeline (clustering refinement + assignment + backtracking) can never
// exceed the DP's provably optimal throughput on instances small enough to
// solve exactly.
func TestMapNeverBeatsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := testutil.RandChainConfig{MinTasks: 2, MaxTasks: 5, MaxMinProcs: 2, AllowNonReplicable: true}
	trials := 0
	for trial := 0; trial < 60; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 4+rng.Intn(5))
		g, gErr := Map(c, pl, Options{Backtrack: 2})
		d, dErr := dp.MapChain(c, pl, dp.Options{})
		if dErr != nil {
			// If the exact solver finds nothing feasible, greedy must not
			// claim success either.
			if gErr == nil {
				t.Errorf("trial %d: greedy found %v where DP found nothing", trial, &g)
			}
			continue
		}
		if gErr != nil {
			continue // greedy may miss feasible instances; that is allowed
		}
		trials++
		if g.Throughput() > d.Throughput()+1e-9 {
			t.Errorf("trial %d: greedy %.12f beats DP optimum %.12f\n g: %v\n d: %v",
				trial, g.Throughput(), d.Throughput(), &g, &d)
		}
		if err := g.Validate(pl); err != nil {
			t.Errorf("trial %d: greedy mapping invalid: %v", trial, err)
		}
	}
	if trials == 0 {
		t.Fatal("no feasible trials")
	}
}

// TestInstrumentedMapIdentical asserts the observability hooks cannot
// change what the heuristic computes, and that they record its phases.
func TestInstrumentedMapIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := testutil.DefaultRandChainConfig()
	for trial := 0; trial < 25; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 4+rng.Intn(8))
		plain, errPlain := Map(c, pl, Options{Backtrack: 2})
		tr := obs.NewTracer()
		reg := live.NewRegistry(live.Options{})
		inst, errInst := Map(c, pl, Options{Backtrack: 2, Trace: tr, Metrics: reg})
		if (errPlain == nil) != (errInst == nil) {
			t.Fatalf("trial %d: error disagreement: plain=%v instrumented=%v", trial, errPlain, errInst)
		}
		if errPlain != nil {
			continue
		}
		if !reflect.DeepEqual(plain.Modules, inst.Modules) {
			t.Errorf("trial %d: instrumentation changed the mapping:\nplain: %v\nobs:   %v",
				trial, &plain, &inst)
		}
		if tr.Len() == 0 {
			t.Errorf("trial %d: tracer collected no greedy spans", trial)
		}
		s := reg.Snapshot()
		if s.Counters["greedy.evals"].Total == 0 {
			t.Errorf("trial %d: no throughput evaluations counted: %+v", trial, s.Counters)
		}
		if s.Histograms["greedy.map_seconds"].Count == 0 {
			t.Errorf("trial %d: map timing histogram empty", trial)
		}
	}
}

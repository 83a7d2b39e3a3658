package dp

import (
	"math/rand"
	"reflect"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/testutil"
)

// diffConfig bounds the differential instances: chains up to k=5 tasks on
// up to P=8 processors, small enough for BruteForce to stay fast but large
// enough to exercise clustering, replication and memory minima together.
var diffConfig = testutil.RandChainConfig{
	MinTasks: 1, MaxTasks: 5, MaxMinProcs: 3, AllowNonReplicable: true,
}

// diffCase builds the seeded random instance for one differential check.
func diffCase(seed int64) (*model.Chain, model.Platform) {
	rng := rand.New(rand.NewSource(seed))
	procs := 2 + rng.Intn(7) // 2..8
	return testutil.RandChain(rng, diffConfig, procs)
}

// checkDPMatchesBrute asserts that the full DP — clustering plus
// replication — achieves exactly the brute-force-optimal throughput, and
// that the returned mapping is valid and delivers the throughput it
// claims.
func checkDPMatchesBrute(t *testing.T, seed int64) {
	t.Helper()
	c, pl := diffCase(seed)
	m, err := MapChain(c, pl, Options{})
	ref, refErr := BruteForce(c, pl, Options{})
	if (err == nil) != (refErr == nil) {
		t.Fatalf("seed %d: feasibility disagreement: dp err=%v, brute err=%v", seed, err, refErr)
	}
	if err != nil {
		return
	}
	if verr := m.Validate(pl); verr != nil {
		t.Fatalf("seed %d: DP produced invalid mapping %v: %v", seed, &m, verr)
	}
	if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
		t.Fatalf("seed %d: DP throughput %.12f != brute force %.12f\nchain: %+v\ndp:    %v\nbrute: %v",
			seed, m.Throughput(), ref.Throughput(), c, &m, &ref)
	}
}

// FuzzDPMatchesBrute is the differential fuzz target: any seed defines a
// random chain instance, and the DP must match exhaustive enumeration
// exactly. Run with `go test -fuzz FuzzDPMatchesBrute ./internal/dp` to
// search for disagreements; the committed corpus replays known-interesting
// seeds as a regression suite on every plain `go test`.
func FuzzDPMatchesBrute(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDPMatchesBrute(t, seed)
	})
}

// TestDPMatchesBruteTable is the deterministic companion to the fuzz
// target: 200 fixed seeds checked on every test run, no fuzz engine
// involved.
func TestDPMatchesBruteTable(t *testing.T) {
	if testing.Short() {
		t.Skip("differential table is slow under -short")
	}
	for seed := int64(0); seed < 200; seed++ {
		checkDPMatchesBrute(t, seed)
	}
}

// TestInstrumentedSolveIdentical asserts the observability hooks cannot
// perturb the solver: MapChain with a live tracer and registry returns a
// bit-identical mapping to the uninstrumented solve, and the instruments
// actually collected solver activity.
func TestInstrumentedSolveIdentical(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c, pl := diffCase(seed)
		plain, errPlain := MapChain(c, pl, Options{})
		tr := obs.NewTracer()
		reg := live.NewRegistry(live.Options{})
		inst, errInst := MapChain(c, pl, Options{Trace: tr, Metrics: reg})
		if (errPlain == nil) != (errInst == nil) {
			t.Fatalf("seed %d: error disagreement: plain=%v instrumented=%v", seed, errPlain, errInst)
		}
		if errPlain != nil {
			continue
		}
		if !reflect.DeepEqual(plain.Modules, inst.Modules) {
			t.Errorf("seed %d: instrumentation changed the mapping:\nplain: %v\nobs:   %v",
				seed, &plain, &inst)
		}
		if tr.Len() == 0 {
			t.Errorf("seed %d: tracer collected no solver spans", seed)
		}
		// Single-task chains skip the layer loop, so counters only appear
		// for k > 1.
		s := reg.Snapshot()
		if c.Len() > 1 && s.Counters["dp.map_chain.states"].Total == 0 {
			t.Errorf("seed %d: metrics registry collected no state counts: %+v", seed, s.Counters)
		}
	}
}

package dp

import (
	"fmt"
	"math/rand"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// checkSpanSetMatchesBrute draws a clustering and a replication rule for
// the seed's diffCase chain and checks both restricted span sets of the
// Solver against exhaustive enumeration: AssignClustered against
// bruteAssign on that clustering, and MapChain with clustering disabled
// against BruteForce over singleton modules. Each must agree on
// feasibility, match the optimal throughput, and return a valid mapping
// of the allowed spans.
func checkSpanSetMatchesBrute(t *testing.T, seed int64) {
	t.Helper()
	c, pl := diffCase(seed)
	rng := rand.New(rand.NewSource(^seed))
	all := model.AllClusterings(c.Len())
	spans := all[rng.Intn(len(all))]
	opt := Options{DisableReplication: rng.Intn(2) == 0}

	check := func(what string, m model.Mapping, err error, ref model.Mapping, refOK bool, want []model.Span) {
		t.Helper()
		if (err == nil) != refOK {
			t.Fatalf("seed %d %s: feasibility disagreement: dp err=%v, brute ok=%v", seed, what, err, refOK)
		}
		if err != nil {
			return
		}
		if verr := m.Validate(pl); verr != nil {
			t.Fatalf("seed %d %s: invalid mapping %v: %v", seed, what, &m, verr)
		}
		if len(m.Modules) != len(want) {
			t.Fatalf("seed %d %s: mapping %v, want spans %v", seed, what, &m, want)
		}
		for i, mod := range m.Modules {
			if mod.Lo != want[i].Lo || mod.Hi != want[i].Hi {
				t.Fatalf("seed %d %s: mapping %v, want spans %v", seed, what, &m, want)
			}
		}
		if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
			t.Fatalf("seed %d %s: throughput %.12f != brute force %.12f\nchain: %+v\ndp:    %v\nbrute: %v",
				seed, what, m.Throughput(), ref.Throughput(), c, &m, &ref)
		}
	}

	m, err := AssignClustered(c, pl, spans, opt)
	ref, ok := bruteAssign(c, pl, spans, opt)
	check(fmt.Sprintf("clustering %v", spans), m, err, ref, ok, spans)

	single := opt
	single.DisableClustering = true
	m, err = MapChain(c, pl, single)
	ref, refErr := BruteForce(c, pl, single)
	check("clustering off", m, err, ref, refErr == nil, model.Singletons(c.Len()))
}

// FuzzSpanSetMatchesBrute is the differential fuzz target for the
// span-restricted Solver behind AssignClustered and clustering-off
// MapChain. Run with `go test -fuzz FuzzSpanSetMatchesBrute ./internal/dp`.
func FuzzSpanSetMatchesBrute(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSpanSetMatchesBrute(t, seed)
	})
}

// TestSpanSetMatchesBruteTable is the deterministic companion: 300 fixed
// seeds checked on every test run.
func TestSpanSetMatchesBruteTable(t *testing.T) {
	if testing.Short() {
		t.Skip("differential table is slow under -short")
	}
	for seed := int64(0); seed < 300; seed++ {
		checkSpanSetMatchesBrute(t, seed)
	}
}

package dp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// checkCappedMatchesFull asserts that a capped cold solve returns exactly
// what the uncapped Solver returns on the same instance: MapChain against
// NewSolver's Solve when spans is nil, AssignClustered against the
// uncapped solve restricted to spans otherwise. The two must fail alike,
// or return deep-equal modules with bit-equal throughput.
func checkCappedMatchesFull(t *testing.T, what string, c *model.Chain, pl model.Platform, opt Options, spans []model.Span) {
	t.Helper()
	var capped model.Mapping
	var cerr error
	if spans == nil {
		capped, cerr = MapChain(c, pl, opt)
	} else {
		what = fmt.Sprintf("%s clustering %v", what, spans)
		capped, cerr = AssignClustered(c, pl, spans, opt)
	}
	s, ferr := newSolver(c, pl, opt, spans)
	var full model.Mapping
	if ferr == nil {
		full, ferr = s.Solve()
	}
	if fmt.Sprint(cerr) != fmt.Sprint(ferr) {
		t.Fatalf("%s: capped err=%v, uncapped err=%v", what, cerr, ferr)
	}
	if cerr != nil {
		return
	}
	if !reflect.DeepEqual(capped.Modules, full.Modules) {
		t.Fatalf("%s: capped solve %v, uncapped %v", what, &capped, &full)
	}
	if ct, ft := capped.Throughput(), full.Throughput(); ct != ft {
		t.Fatalf("%s: capped throughput %v, uncapped %v", what, ct, ft)
	}
}

// FuzzCappedSolveMatchesFull checks the capped cold solves against the
// uncapped Solver on random chains of 1–6 tasks on up to 64 processors,
// non-replicable tasks allowed, under the three option sets: MapChain,
// and AssignClustered on a seeded random clustering. Run with
// `go test -fuzz FuzzCappedSolveMatchesFull ./internal/dp`.
func FuzzCappedSolveMatchesFull(f *testing.F) {
	// -251 and -77 fail when the skip also drops states equal to the
	// incumbent: ties at the optimum then close on another mapping.
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, -1, 1 << 40, -251, -77} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.RandChainConfig{
			MinTasks: 1, MaxTasks: 6, MaxMinProcs: 1 + rng.Intn(6), AllowNonReplicable: true,
		}
		c, pl := testutil.RandChain(rng, cfg, 1+rng.Intn(64))
		all := model.AllClusterings(c.Len())
		spans := all[rng.Intn(len(all))]
		for _, opt := range referenceOptions {
			what := fmt.Sprintf("seed %d %s", seed, optName(opt))
			checkCappedMatchesFull(t, what, c, pl, opt, nil)
			checkCappedMatchesFull(t, what, c, pl, opt, spans)
		}
	})
}

// bestClose is the least close value of a solved solver, the period its
// scan picks, or +Inf when it holds no complete mapping.
func bestClose(s *Solver) float64 {
	best := inf
	s.closeStates(func(_, _, _, _ int, v float64) { best = min(best, v) })
	return best
}

// checkFirstIncumbent checks the incumbent a capped solve of (c, pl) under
// opt starts pass 1 with, and returns it with the uncapped optimum. It
// must equal, bit for bit, the least best close value of the capped
// AssignClustered solves of the one- and two-module clusterings opt
// allows, and it must be at least the optimum, or the cap is not exact.
func checkFirstIncumbent(t *testing.T, what string, c *model.Chain, pl model.Platform, opt Options) (first, optimum float64) {
	t.Helper()
	s, err := newSolver(c, pl, opt, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	first = s.firstIncumbent()
	k := c.Len()
	clusterings := [][]model.Span{{{Lo: 0, Hi: k}}}
	for a := 1; a < k; a++ {
		clusterings = append(clusterings, []model.Span{{Lo: 0, Hi: a}, {Lo: a, Hi: k}})
	}
	want := inf
	for _, spans := range clusterings {
		if opt.DisableClustering && slices.ContainsFunc(spans, func(sp model.Span) bool { return sp.Hi-sp.Lo > 1 }) {
			continue // not a clustering the singleton assignment holds
		}
		cs, err := newSolver(c, pl, opt, spans)
		if err != nil {
			t.Fatalf("%s clustering %v: %v", what, spans, err)
		}
		cs.capped = true
		if _, err := cs.Solve(); err == nil {
			want = min(want, bestClose(cs))
		}
	}
	if math.Float64bits(first) != math.Float64bits(want) {
		t.Fatalf("%s: first incumbent %v, best one- or two-module close value %v", what, first, want)
	}
	optimum = inf
	if _, err := s.Solve(); err == nil {
		optimum = bestClose(s)
	}
	if first < optimum {
		t.Fatalf("%s: first incumbent %v below the optimum %v", what, first, optimum)
	}
	return first, optimum
}

// TestFirstIncumbent checks a capped solve's incumbent before pass 1 on
// seeded random chains of 1–6 tasks on up to 64 processors, non-replicable
// tasks allowed, under the three option sets (see checkFirstIncumbent).
func TestFirstIncumbent(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.RandChainConfig{
			MinTasks: 1, MaxTasks: 6, MaxMinProcs: 1 + rng.Intn(6), AllowNonReplicable: true,
		}
		c, pl := testutil.RandChain(rng, cfg, 1+rng.Intn(64))
		for _, opt := range referenceOptions {
			checkFirstIncumbent(t, fmt.Sprintf("seed %d %s", seed, optName(opt)), c, pl, opt)
		}
	}
}

// TestInstanceCountsAreOneRange pins maxInstance to model.SplitReplicas:
// for every minimum m and platform size P up to 256, with replication on
// and off, the per-instance counts of raw counts m..P are exactly
// m..maxInstance(m, P, repl).
func TestInstanceCountsAreOneRange(t *testing.T) {
	const n = 256
	seen := make([]bool, n+1)
	for _, repl := range []bool{false, true} {
		for m := 1; m <= n; m++ {
			clear(seen)
			hi := 0 // the largest count seen for raw counts m..P
			for P := m; P <= n; P++ {
				v := model.SplitReplicas(P, m, repl).ProcsPerInstance
				seen[v] = true
				hi = max(hi, v)
				if got := maxInstance(m, P, repl); got != hi {
					t.Fatalf("m=%d P=%d replicable=%v: maxInstance %d, SplitReplicas reaches %d", m, P, repl, got, hi)
				}
				for v := m; v <= hi; v++ {
					if !seen[v] {
						t.Fatalf("m=%d P=%d replicable=%v: count %d is in the range but no raw count holds it", m, P, repl, v)
					}
				}
				if v < m {
					t.Fatalf("m=%d P=%d replicable=%v: raw count %d holds %d, below the minimum", m, P, repl, P, v)
				}
			}
		}
	}
	// commGrid marks those ranges with setRange, across word boundaries.
	set := make([]uint64, 4)
	for lo := 0; lo < 4*64; lo++ {
		for hi := lo; hi < 4*64; hi++ {
			clear(set)
			setRange(set, lo, hi)
			got := appendCounts(nil, set)
			if len(got) != hi-lo+1 || got[0] != lo || got[len(got)-1] != hi {
				t.Fatalf("setRange(%d, %d) marks %v", lo, hi, got)
			}
		}
	}
}

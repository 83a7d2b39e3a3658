package tradeoff

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// exhaustive enumerates the space Frontier covers — every clustering and
// raw processor vector, each mapping once with maximal replication
// (unless opt disables it) and once with single instances — as points in
// Frontier's order.
func exhaustive(c *model.Chain, pl model.Platform, opt Options) []Point {
	var pts []Point
	add := func(m model.Mapping) {
		pts = append(pts, Point{Mapping: m, Throughput: m.Throughput(), Latency: m.Latency()})
	}
	for _, spans := range model.AllClusterings(c.Len()) {
		l := len(spans)
		mins := make([]int, l)
		feasible := true
		for i, sp := range spans {
			mins[i] = c.ModuleMinProcs(sp.Lo, sp.Hi, pl.MemPerProc)
			feasible = feasible && mins[i] >= 0 && mins[i] <= pl.Procs
		}
		if !feasible {
			continue
		}
		raw := make([]int, l)
		build := func(repl bool) model.Mapping {
			mods := make([]model.Module, l)
			for i, sp := range spans {
				r := model.SplitReplicas(raw[i], mins[i], repl && c.ModuleReplicable(sp.Lo, sp.Hi))
				mods[i] = model.Module{Lo: sp.Lo, Hi: sp.Hi, Procs: r.ProcsPerInstance, Replicas: r.Replicas}
			}
			return model.Mapping{Chain: c, Modules: mods}
		}
		var rec func(i, used int)
		rec = func(i, used int) {
			if i == l {
				add(build(false))
				if !opt.DisableReplication {
					add(build(true))
				}
				return
			}
			for p := mins[i]; used+p <= pl.Procs; p++ {
				raw[i] = p
				rec(i+1, used+p)
			}
		}
		rec(0, 0)
	}
	// Exact ties are common here (a raw count past a module's last
	// replica, or nothing to replicate), so each tie key is built once.
	order := make([]int, len(pts))
	keys := make([]string, len(pts))
	for i := range order {
		order[i] = i
	}
	key := func(i int) string {
		if keys[i] == "" {
			keys[i] = fmt.Sprintf("%08d %v", pts[i].Mapping.TotalProcs(), &pts[i].Mapping)
		}
		return keys[i]
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &pts[order[i]], &pts[order[j]]
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		return key(order[i]) < key(order[j])
	})
	sorted := make([]Point, len(pts))
	for i, o := range order {
		sorted[i] = pts[o]
	}
	return sorted
}

// checkAgainstExhaustive asserts that Frontier under opt equals the
// Pareto sweep of the exhaustive enumeration point for point, with
// throughput and latency equal to the last bit; that
// BestThroughputUnderLatency returns the exhaustive best at every
// frontier latency, midway between neighbours and past the last; and
// that MinLatency has the first point's latency. Mapping strings may
// differ only where two mappings tie in both values; each such tie is
// logged.
func checkAgainstExhaustive(t *testing.T, what string, c *model.Chain, pl model.Platform, opt Options) {
	t.Helper()
	all := exhaustive(c, pl, opt)
	front, err := Frontier(c, pl, opt)
	if (err != nil) != (len(all) == 0) {
		t.Fatalf("%s: Frontier err=%v with %d enumerated mappings", what, err, len(all))
	}
	if err != nil {
		return
	}
	var want []Point
	bestThr := -1.0
	for _, p := range all {
		if p.Throughput > bestThr*(1+1e-9)+1e-12 {
			want = append(want, p)
			bestThr = p.Throughput
		}
	}
	if len(front) != len(want) {
		t.Fatalf("%s: frontier has %d points, exhaustive %d\nfrontier: %v\nexhaustive: %v",
			what, len(front), len(want), describe(front), describe(want))
	}
	for i, w := range want {
		g := front[i]
		if g.Throughput != w.Throughput || g.Latency != w.Latency {
			t.Fatalf("%s point %d: %v/s, %v s (%v), exhaustive %v/s, %v s (%v)", what, i,
				g.Throughput, g.Latency, &g.Mapping, w.Throughput, w.Latency, &w.Mapping)
		}
		if gs, ws := g.Mapping.String(), w.Mapping.String(); gs != ws {
			t.Logf("%s point %d: tie at %v/s, %v s: %s, exhaustive %s", what, i, g.Throughput, g.Latency, gs, ws)
		}
	}

	bounds := []float64{}
	for i, p := range front {
		bounds = append(bounds, p.Latency)
		if i+1 < len(front) {
			bounds = append(bounds, (p.Latency+front[i+1].Latency)/2)
		}
	}
	bounds = append(bounds, 2*front[len(front)-1].Latency)
	for _, bound := range bounds {
		m, err := BestThroughputUnderLatency(c, pl, bound, opt)
		if err != nil {
			t.Fatalf("%s bound %v: %v", what, bound, err)
		}
		var w *Point
		for i := range all {
			if p := &all[i]; p.Latency <= bound && (w == nil || p.Throughput > w.Throughput) {
				w = p
			}
		}
		if thr, lat := m.Throughput(), m.Latency(); thr != w.Throughput || lat != w.Latency {
			t.Fatalf("%s bound %v: %v/s, %v s (%v), exhaustive best %v/s, %v s (%v)", what, bound,
				thr, lat, &m, w.Throughput, w.Latency, &w.Mapping)
		}
	}
	if _, err := BestThroughputUnderLatency(c, pl, front[0].Latency/2, opt); err == nil {
		t.Fatalf("%s: a bound below the minimum latency accepted", what)
	}

	ml, err := MinLatency(c, pl, opt)
	if err != nil {
		t.Fatalf("%s: MinLatency: %v", what, err)
	}
	if ml.Latency() != front[0].Latency {
		t.Fatalf("%s: MinLatency %v (%v), first frontier point %v (%v)", what,
			ml.Latency(), &ml, front[0].Latency, &front[0].Mapping)
	}
}

// describe renders points one per line for failure messages.
func describe(pts []Point) string {
	s := ""
	for _, p := range pts {
		s += fmt.Sprintf("\n  %v/s %v s %v", p.Throughput, p.Latency, &p.Mapping)
	}
	return s
}

// FuzzFrontierMatchesExhaustive checks Frontier, BestThroughputUnderLatency
// and MinLatency against exhaustive enumeration on random chains of 1–5
// tasks on up to 16 processors, with and without replication. Run with
// `go test -fuzz FuzzFrontierMatchesExhaustive ./internal/tradeoff`.
func FuzzFrontierMatchesExhaustive(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.RandChainConfig{
			MinTasks: 1, MaxTasks: 5, MaxMinProcs: 1 + rng.Intn(3), AllowNonReplicable: true,
		}
		c, pl := testutil.RandChain(rng, cfg, 1+rng.Intn(16))
		for _, opt := range []Options{{}, {DisableReplication: true}} {
			checkAgainstExhaustive(t, fmt.Sprintf("seed %d replication off=%v", seed, opt.DisableReplication), c, pl, opt)
		}
	})
}

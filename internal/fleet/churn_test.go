package fleet

import (
	"bufio"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

var (
	churnSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	churnTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
)

// promFleetSamples lints a Prometheus exposition (the same 0.0.4 checks
// the serve smoke applies) and returns the unlabelled fleet_* samples.
func promFleetSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	typed := map[string]bool{}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := churnTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed comment line: %q", line)
				continue
			}
			typed[m[1]] = true
			continue
		}
		m := churnSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := m[1]
		family := name
		if !typed[family] {
			for _, suffix := range []string{"_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suffix); found && typed[base] {
					family = base
					break
				}
			}
		}
		if !typed[family] {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
		if strings.HasPrefix(name, "fleet_") && m[2] == "" {
			v, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				t.Errorf("sample %q: unparsable value %q", name, m[4])
				continue
			}
			out[name] = v
		}
	}
	return out
}

// TestChurnEndToEnd drives a virtual-clock tenant arrival/departure
// scenario with a mid-run processor failure and checks, at every event,
// that survivors stay feasible; at the end, that the rebalance count is
// bounded by the mutation count, the virtual-clock rebalance latency is
// exact, and the /fleet state and fleet_* exposition agree with the
// ground truth the test tracked independently.
func TestChurnEndToEnd(t *testing.T) {
	// Self-stepping virtual clock: every fleet clock read advances 1ms, so
	// each rebalance (two reads) measures exactly 1ms.
	clock := time.Unix(1_000_000, 0)
	reg := live.NewRegistry(live.Options{})
	f, err := New(Config{
		Pool:     model.Platform{Procs: 40},
		Registry: reg,
		Now: func() time.Time {
			clock = clock.Add(time.Millisecond)
			return clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	var (
		gtAdmitted, gtRejected, gtDeparted int64
		mutations                          int64 // successful mutating ops (1 rebalance each)
		liveIDs                            []int64
	)
	admit := func(pri, maxProcs int) {
		p, err := f.Admit(Spec{
			Tenant: "churn", Chain: genChain(rng, 2+rng.Intn(3)),
			Priority: pri, MaxProcs: maxProcs,
		})
		if err != nil {
			gtRejected++
			return
		}
		gtAdmitted++
		mutations++
		liveIDs = append(liveIDs, p.ID)
	}
	depart := func() {
		if len(liveIDs) == 0 {
			return
		}
		id := liveIDs[0]
		liveIDs = liveIDs[1:]
		if err := f.Depart(id); err == nil {
			gtDeparted++
			mutations++
		}
	}
	check := func(when string) {
		t.Helper()
		if err := checkPlacements(f, machine.Grid{}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if err := checkAccounting(f.Stats()); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		// Preemption can evict pipelines the test still lists: reconcile
		// from the fleet's observable placements.
		placed := map[int64]bool{}
		for _, p := range f.Placements() {
			placed[p.ID] = true
		}
		kept := liveIDs[:0]
		for _, id := range liveIDs {
			if placed[id] {
				kept = append(kept, id)
			}
		}
		liveIDs = kept
	}

	// Morning: eight tenants arrive.
	for i := 0; i < 8; i++ {
		admit(1+rng.Intn(3), 6+rng.Intn(10))
		check("arrival")
	}
	// Two leave.
	depart()
	depart()
	check("departure")
	// Mid-run: a quarter of the pool fails.
	if err := f.FailProcs(10); err != nil {
		t.Fatal(err)
	}
	mutations++
	check("processor failure")
	// Afternoon: more arrivals on the degraded pool, some pushy.
	for i := 0; i < 6; i++ {
		admit(1+rng.Intn(5), 6+rng.Intn(10))
		check("degraded arrival")
	}
	depart()
	check("final departure")

	st := f.Stats()
	if st.Admitted != gtAdmitted || st.Rejected != gtRejected || st.Departed != gtDeparted {
		t.Fatalf("counters diverge from ground truth: fleet %+v, test admitted=%d rejected=%d departed=%d",
			st, gtAdmitted, gtRejected, gtDeparted)
	}
	if st.FailedProcs != 10 || st.PoolProcs != 30 {
		t.Fatalf("pool = %d failed = %d, want 30/10", st.PoolProcs, st.FailedProcs)
	}
	// Every successful mutation rebalances once; a preempting rejection may
	// add up to two more. The count must be bounded — no rebalance storms.
	if st.Rebalances < mutations || st.Rebalances > mutations+2*gtRejected {
		t.Fatalf("rebalances = %d, want within [%d, %d]", st.Rebalances, mutations, mutations+2*gtRejected)
	}
	if st.LastRebalanceMS != 1.0 {
		t.Fatalf("virtual-clock rebalance latency = %vms, want exactly 1ms", st.LastRebalanceMS)
	}

	// /fleet state must agree with the stats snapshot.
	state := f.State()
	if state.Generation != st.Generation || len(state.Pipelines) != st.Placed {
		t.Fatalf("state (gen %d, %d pipelines) disagrees with stats (gen %d, %d placed)",
			state.Generation, len(state.Pipelines), st.Generation, st.Placed)
	}

	// And the Prometheus exposition must agree with both.
	var buf strings.Builder
	if err := live.WriteProm(&buf, nil, reg); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	samples := promFleetSamples(t, buf.String())
	want := map[string]float64{
		"fleet_admitted_total":    float64(st.Admitted),
		"fleet_rejected_total":    float64(st.Rejected),
		"fleet_departed_total":    float64(st.Departed),
		"fleet_evicted_total":     float64(st.Evicted),
		"fleet_rebalance_total":   float64(st.Rebalances),
		"fleet_pipelines_placed":  float64(st.Placed),
		"fleet_pool_procs":        float64(st.PoolProcs),
		"fleet_pool_failed_procs": float64(st.FailedProcs),
		"fleet_pool_used_procs":   float64(st.UsedProcs),
		"fleet_generation":        float64(st.Generation),
	}
	for name, w := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("exposition is missing %s", name)
			continue
		}
		if got != w {
			t.Errorf("%s = %v, exposition disagrees with ground truth %v", name, got, w)
		}
	}
	if hr, ok := samples["fleet_cache_hit_rate"]; !ok {
		t.Error("exposition is missing fleet_cache_hit_rate")
	} else if math.Abs(hr-st.Cache.HitRate) > 1e-9 {
		t.Errorf("fleet_cache_hit_rate = %v, stats say %v", hr, st.Cache.HitRate)
	}
	if _, ok := samples["fleet_rebalance_ms_count"]; !ok {
		t.Error("exposition is missing the fleet_rebalance_ms summary")
	}
}

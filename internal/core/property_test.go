package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/testutil"
)

// TestRemapEqualsFreshSolve asserts the degraded-remapping identity:
// solving after losing f processors is exactly a fresh solve on a platform
// with P-f processors — same mapping, same predicted throughput.
func TestRemapEqualsFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := testutil.DefaultRandChainConfig()
	trials := 0
	for trial := 0; trial < 40; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 5+rng.Intn(8))
		req := Request{Chain: c, Platform: pl}
		for f := 1; f <= 2; f++ {
			deg, degErr := Remap(req, f)
			fresh := req
			fresh.Platform.Procs = pl.Procs - f
			want, wantErr := Map(fresh)
			if (degErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d f=%d: feasibility disagreement: remap err=%v, fresh err=%v",
					trial, f, degErr, wantErr)
			}
			if degErr != nil {
				continue
			}
			trials++
			if !reflect.DeepEqual(deg.Mapping.Modules, want.Mapping.Modules) {
				t.Errorf("trial %d f=%d: remap differs from fresh solve:\nremap: %v\nfresh: %v",
					trial, f, &deg.Mapping, &want.Mapping)
			}
			if !testutil.AlmostEqual(deg.Throughput, want.Throughput, 1e-12) {
				t.Errorf("trial %d f=%d: throughput %g != %g", trial, f, deg.Throughput, want.Throughput)
			}
			if deg.Mapping.TotalProcs() > pl.Procs-f {
				t.Errorf("trial %d f=%d: degraded mapping uses %d procs, only %d survive",
					trial, f, deg.Mapping.TotalProcs(), pl.Procs-f)
			}
		}
	}
	if trials == 0 {
		t.Fatal("no feasible trials")
	}
}

// TestRemapRejectsTotalLoss checks the error paths around the processor
// budget.
func TestRemapRejectsTotalLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, pl := testutil.RandChain(rng, testutil.DefaultRandChainConfig(), 4)
	req := Request{Chain: c, Platform: pl}
	if _, err := Remap(req, 4); err == nil {
		t.Error("losing every processor must fail")
	}
	if _, err := Remap(req, 9); err == nil {
		t.Error("losing more processors than exist must fail")
	}
	if _, err := Remap(req, -1); err == nil {
		t.Error("negative loss must fail")
	}
}

// TestMapInstrumentedIdentical asserts that attaching a tracer and
// registry to a core request does not change the result, and that the
// request-level span plus the underlying solver activity are recorded.
func TestMapInstrumentedIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cfg := testutil.DefaultRandChainConfig()
	for trial := 0; trial < 10; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 4+rng.Intn(6))
		plain, errPlain := Map(Request{Chain: c, Platform: pl})
		tr := obs.NewTracer()
		reg := live.NewRegistry(live.Options{})
		inst, errInst := Map(Request{Chain: c, Platform: pl, Trace: tr, Metrics: reg})
		if (errPlain == nil) != (errInst == nil) {
			t.Fatalf("trial %d: error disagreement: plain=%v instrumented=%v", trial, errPlain, errInst)
		}
		if errPlain != nil {
			continue
		}
		if !reflect.DeepEqual(plain.Mapping.Modules, inst.Mapping.Modules) {
			t.Errorf("trial %d: instrumentation changed the mapping", trial)
		}
		foundMapSpan := false
		for _, e := range tr.Events() {
			if e.Cat == "core" && e.Name == "map" {
				foundMapSpan = true
			}
		}
		if !foundMapSpan {
			t.Errorf("trial %d: no core/map span recorded", trial)
		}
		if reg.Snapshot().Histograms["core.map_seconds"].Count == 0 {
			t.Errorf("trial %d: core.map_seconds histogram empty", trial)
		}
	}
}

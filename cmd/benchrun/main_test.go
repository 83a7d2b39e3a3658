package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipemap/internal/bench"
)

func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	err := run([]string{
		"-quick", "-datasets", "20", "-runs", "1", "-out", out,
		"../../specs/threestage.json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "threestage") || !strings.Contains(buf.String(), "wrote ") {
		t.Errorf("output missing table/confirmation:\n%s", buf.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Specs []struct {
			Spec           string  `json:"spec"`
			DPSolveSeconds float64 `json:"dpSolveSeconds"`
		} `json:"specs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if len(rep.Specs) != 1 || rep.Specs[0].DPSolveSeconds <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRunBadSpec(t *testing.T) {
	if err := run([]string{"-out", "", "no-such.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing spec accepted")
	}
}

// TestGateChecksDPSolve pins the gate's rule on both gated latencies:
// fail above 2x the baseline unless still under the 0.5 ms floor.
func TestGateChecksDPSolve(t *testing.T) {
	base := bench.PerfReport{Specs: []bench.SpecPerf{
		{Spec: "big", DPSolveSeconds: 0.002, AdaptDecisionSeconds: 0.002},
		{Spec: "tiny", DPSolveSeconds: 0.0001, AdaptDecisionSeconds: 0.0001},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		dp, adapt   float64
		tinyDP      float64
		wantFailure string
	}{
		{name: "within 2x", dp: 0.0039, adapt: 0.0039, tinyDP: 0.0001},
		{name: "dp regressed", dp: 0.0041, adapt: 0.002, tinyDP: 0.0001, wantFailure: "big: dp solve"},
		{name: "adapt regressed", dp: 0.002, adapt: 0.0041, tinyDP: 0.0001, wantFailure: "big: adapt decision"},
		{name: "under the floor", dp: 0.002, adapt: 0.002, tinyDP: 0.0004},
		{name: "tiny dp above the floor", dp: 0.002, adapt: 0.002, tinyDP: 0.0006, wantFailure: "tiny: dp solve"},
	} {
		rep := bench.PerfReport{Specs: []bench.SpecPerf{
			{Spec: "big", DPSolveSeconds: tc.dp, AdaptDecisionSeconds: tc.adapt},
			{Spec: "tiny", DPSolveSeconds: tc.tinyDP, AdaptDecisionSeconds: 0.0001},
			{Spec: "new", DPSolveSeconds: 1, AdaptDecisionSeconds: 1},
		}}
		err := gateAgainst(path, rep, &bytes.Buffer{})
		switch {
		case tc.wantFailure == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.wantFailure != "" && (err == nil || !strings.Contains(err.Error(), tc.wantFailure)):
			t.Errorf("%s: gate error %v, want one naming %q", tc.name, err, tc.wantFailure)
		}
	}
}

// TestGateChecksFleetRebalance pins the same rule on the fleet churn
// latency, and lets a baseline that predates the field pass.
func TestGateChecksFleetRebalance(t *testing.T) {
	base := bench.PerfReport{Specs: []bench.SpecPerf{
		{Spec: "big", FleetRebalanceSeconds: 0.002},
		{Spec: "tiny", FleetRebalanceSeconds: 0.0001},
		{Spec: "old"},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		big, tiny   float64
		wantFailure string
	}{
		{name: "within 2x", big: 0.0039, tiny: 0.0001},
		{name: "regressed", big: 0.0041, tiny: 0.0001, wantFailure: "big: fleet rebalance"},
		{name: "under the floor", big: 0.002, tiny: 0.0004},
		{name: "tiny above the floor", big: 0.002, tiny: 0.0006, wantFailure: "tiny: fleet rebalance"},
	} {
		rep := bench.PerfReport{Specs: []bench.SpecPerf{
			{Spec: "big", FleetRebalanceSeconds: tc.big},
			{Spec: "tiny", FleetRebalanceSeconds: tc.tiny},
			{Spec: "old", FleetRebalanceSeconds: 1},
		}}
		err := gateAgainst(path, rep, &bytes.Buffer{})
		switch {
		case tc.wantFailure == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.wantFailure != "" && (err == nil || !strings.Contains(err.Error(), tc.wantFailure)):
			t.Errorf("%s: gate error %v, want one naming %q", tc.name, err, tc.wantFailure)
		}
	}
}

// TestGateChecksKernels pins the same rule on each served app's kernel
// time per data set, matched by app and shape, and lets an app or shape
// the baseline does not record pass.
func TestGateChecksKernels(t *testing.T) {
	base := bench.PerfReport{Kernels: []bench.KernelPerf{
		{App: "ffthist", Shape: "128x128", Seconds: 0.0006},
		{App: "radar", Shape: "16x256", Seconds: 0.0002},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		ffthist, radar float64
		wantFailure    string
	}{
		{name: "within 2x", ffthist: 0.0011, radar: 0.0002},
		{name: "regressed", ffthist: 0.0013, radar: 0.0002, wantFailure: "ffthist 128x128: kernels"},
		{name: "under the floor", ffthist: 0.0006, radar: 0.00045},
		{name: "above the floor", ffthist: 0.0006, radar: 0.0006, wantFailure: "radar 16x256: kernels"},
	} {
		rep := bench.PerfReport{Kernels: []bench.KernelPerf{
			{App: "ffthist", Shape: "128x128", Seconds: tc.ffthist},
			{App: "radar", Shape: "16x256", Seconds: tc.radar},
			{App: "ffthist", Shape: "256x256", Seconds: 1},
		}}
		err := gateAgainst(path, rep, &bytes.Buffer{})
		switch {
		case tc.wantFailure == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.wantFailure != "" && (err == nil || !strings.Contains(err.Error(), tc.wantFailure)):
			t.Errorf("%s: gate error %v, want one naming %q", tc.name, err, tc.wantFailure)
		}
	}
}

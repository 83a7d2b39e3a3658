package core

import (
	"strings"
	"testing"

	"pipemap/internal/apps"
	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

func TestMapAutoSelectsDPForSmallInstances(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(Request{Chain: c, Platform: apps.Platform()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != DP {
		t.Errorf("auto picked %v for a small instance, want dp", res.Algorithm)
	}
	if res.Throughput < 13 || res.Throughput > 16.5 {
		t.Errorf("throughput %g outside expected band", res.Throughput)
	}
	if res.Latency <= 0 {
		t.Error("latency not positive")
	}
}

func TestMapAutoFallsBackToGreedy(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	big := model.Platform{Procs: 512, MemPerProc: 0.5}
	res, err := Map(Request{Chain: c, Platform: big})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != Greedy {
		t.Errorf("auto picked %v for a large instance, want greedy", res.Algorithm)
	}
}

func TestMapDPAndGreedyAgreeOnFFTHist(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map(Request{Chain: c, Platform: apps.Platform(), Algorithm: DP})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Map(Request{Chain: c, Platform: apps.Platform(), Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(d.Throughput, g.Throughput, 0.01) {
		t.Errorf("dp %g vs greedy %g", d.Throughput, g.Throughput)
	}
}

func TestMapWithMachineConstraints(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(Request{
		Chain:    c,
		Platform: apps.Platform(),
		Machine:  &machine.Constraints{Grid: machine.Grid{Rows: 8, Cols: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout == nil || len(res.Layout.Instances) == 0 {
		t.Fatal("no layout returned")
	}
	// Table 1: the 256 message mapping is feasible as-is.
	if !testutil.AlmostEqual(res.Throughput, res.Unconstrained.Throughput(), 1e-6) {
		t.Errorf("feasible %g differs from unconstrained %g",
			res.Throughput, res.Unconstrained.Throughput())
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := Map(Request{}); err == nil {
		t.Error("empty request accepted")
	}
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(Request{Chain: c, Platform: model.Platform{Procs: 0}}); err == nil {
		t.Error("invalid platform accepted")
	}
	if _, err := Map(Request{Chain: &model.Chain{}, Platform: apps.Platform()}); err == nil {
		t.Error("invalid chain accepted")
	}
}

const sampleSpec = `{
  "platform": {"procs": 16, "memPerProc": 1000},
  "tasks": [
    {"name": "a", "exec": [0.1, 5, 0.01], "mem": {"data": 1500}, "replicable": true},
    {"name": "b", "exec": [0.2, 8, 0.02], "mem": {"data": 500}, "replicable": false}
  ],
  "edges": [
    {"icom": [0.01, 0.5, 0.001], "ecom": [0.02, 0.4, 0.4, 0.001, 0.001]}
  ]
}`

func TestParseChainSpec(t *testing.T) {
	c, pl, err := ParseChainSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || pl.Procs != 16 {
		t.Fatalf("parsed %d tasks, %d procs", c.Len(), pl.Procs)
	}
	if got := c.Tasks[0].Exec.Eval(5); !testutil.AlmostEqual(got, 0.1+1+0.05, 1e-9) {
		t.Errorf("task a exec(5) = %g", got)
	}
	if got := c.ECom[0].Eval(2, 4); !testutil.AlmostEqual(got, 0.02+0.2+0.1+0.002+0.004, 1e-9) {
		t.Errorf("edge ecom(2,4) = %g", got)
	}
	if c.Tasks[1].Replicable {
		t.Error("task b should not be replicable")
	}
	if got := c.ModuleMinProcs(0, 1, pl.MemPerProc); got != 2 {
		t.Errorf("task a min procs = %d, want 2", got)
	}
}

func TestParseChainSpecErrors(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"platform":{"procs":4},"tasks":[{"name":"a","exec":[1,2,3]}],"edges":[{"icom":[],"ecom":[1,2,3,4,5]},{"icom":[],"ecom":[1,2,3,4,5]}]}`,
		`{"platform":{"procs":4},"tasks":[{"name":"a","exec":[1,2]}],"edges":[]}`,
		`{"platform":{"procs":4},"tasks":[{"name":"a","exec":[1,2,3]},{"name":"b","exec":[1,2,3]}],"edges":[{"icom":[1,2,3],"ecom":[1,2]}]}`,
		`{"platform":{"procs":0},"tasks":[{"name":"a","exec":[1,2,3]}],"edges":[]}`,
		`{"unknown": true}`,
	}
	for i, s := range cases {
		if _, _, err := ParseChainSpec(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestMappingSpecRoundTrip(t *testing.T) {
	c, pl, err := ParseChainSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(Request{Chain: c, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	spec := EncodeMapping(res.Mapping)
	back, err := DecodeMapping(spec, c)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(back.Throughput(), res.Throughput, 1e-9) {
		t.Errorf("round trip changed throughput: %g vs %g", back.Throughput(), res.Throughput)
	}
	if _, err := DecodeMapping(MappingSpec{}, c); err == nil {
		t.Error("empty mapping spec accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if Auto.String() != "auto" || DP.String() != "dp" || Greedy.String() != "greedy" {
		t.Error("Algorithm.String misbehaves")
	}
}

func TestMapObjectives(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	pl := apps.Platform()
	thr, err := Map(Request{Chain: c, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := Map(Request{Chain: c, Platform: pl, Objective: MinLatency})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Latency > thr.Latency {
		t.Errorf("MinLatency %g worse than throughput optimum %g", lat.Latency, thr.Latency)
	}
	if lat.Throughput > thr.Throughput+1e-9 {
		t.Errorf("MinLatency throughput %g exceeds the optimum %g", lat.Throughput, thr.Throughput)
	}
	bound := (lat.Latency + thr.Latency) / 2
	mid, err := Map(Request{Chain: c, Platform: pl,
		Objective: ThroughputUnderLatency, LatencyBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Latency > bound {
		t.Errorf("bounded mapping latency %g exceeds bound %g", mid.Latency, bound)
	}
	if mid.Throughput < lat.Throughput-1e-9 {
		t.Errorf("bounded throughput %g below min-latency point %g", mid.Throughput, lat.Throughput)
	}
	if _, err := Map(Request{Chain: c, Platform: pl,
		Objective: ThroughputUnderLatency}); err == nil {
		t.Error("missing latency bound accepted")
	}
}

// TestMapLatencyObjectivesRefuseDroppedFields pins that a latency objective
// combined with machine constraints or disabled clustering fails with an
// error naming the combination: the latency solvers would otherwise map
// onto the abstract platform with every clustering and drop the field.
func TestMapLatencyObjectivesRefuseDroppedFields(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	grid := &machine.Constraints{Grid: machine.Grid{Rows: 2, Cols: 2}}
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"min latency on a grid", Request{Objective: MinLatency, Machine: grid}, "Machine"},
		{"min latency without clustering", Request{Objective: MinLatency, DisableClustering: true}, "DisableClustering"},
		{"bounded latency on a grid", Request{Objective: ThroughputUnderLatency, LatencyBound: 1, Machine: grid}, "Machine"},
		{"bounded latency without clustering", Request{Objective: ThroughputUnderLatency, LatencyBound: 1, DisableClustering: true}, "DisableClustering"},
	} {
		tc.req.Chain, tc.req.Platform = c, apps.Platform()
		res, err := Map(tc.req)
		if err == nil {
			t.Errorf("%s: accepted, mapped %v", tc.name, &res.Mapping)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "latency") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not name the latency objective and %s", tc.name, msg, tc.want)
		}
	}
}

func TestRemapDegradedPlatform(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	pl := apps.Platform()
	full, err := Map(Request{Chain: c, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	lost := pl.Procs / 4
	deg, err := Remap(Request{Chain: c, Platform: pl}, lost)
	if err != nil {
		t.Fatal(err)
	}
	if got := deg.Mapping.TotalProcs(); got > pl.Procs-lost {
		t.Errorf("degraded mapping uses %d processors, only %d survive", got, pl.Procs-lost)
	}
	if deg.Throughput > full.Throughput+1e-9 {
		t.Errorf("degraded throughput %g exceeds full-machine %g", deg.Throughput, full.Throughput)
	}
	if err := deg.Mapping.Validate(model.Platform{Procs: pl.Procs - lost, MemPerProc: pl.MemPerProc}); err != nil {
		t.Errorf("degraded mapping invalid on surviving machine: %v", err)
	}
	// Losing nothing is exactly Map.
	same, err := Remap(Request{Chain: c, Platform: pl}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same.Throughput != full.Throughput {
		t.Errorf("Remap(0) throughput %g != Map %g", same.Throughput, full.Throughput)
	}
}

func TestRemapErrors(t *testing.T) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	pl := apps.Platform()
	if _, err := Remap(Request{Chain: c, Platform: pl}, -1); err == nil {
		t.Error("negative loss accepted")
	}
	if _, err := Remap(Request{Chain: c, Platform: pl}, pl.Procs); err == nil {
		t.Error("losing every processor accepted")
	}
}

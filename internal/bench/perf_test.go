package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunPerf runs a tiny trajectory pass against the committed specs and
// checks the report is structurally sound: positive solve and kernel
// times, runtime throughput in the neighborhood of the model bound, and
// stable JSON keys.
func TestRunPerf(t *testing.T) {
	rep, err := RunPerf(
		[]string{"../../specs/threestage.json", "../../specs/ffthist256.json"},
		PerfOptions{Runs: 2, DataSets: 40, Speedup: 400},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Specs) != 2 || rep.Runs != 2 || rep.DataSets != 40 {
		t.Fatalf("report shape = %+v", rep)
	}
	for _, sp := range rep.Specs {
		if sp.DPSolveSeconds <= 0 || sp.GreedySolveSeconds <= 0 {
			t.Errorf("%s: non-positive solve times %g/%g",
				sp.Spec, sp.DPSolveSeconds, sp.GreedySolveSeconds)
		}
		if sp.DPThroughput <= 0 || sp.GreedyThroughput > sp.DPThroughput+1e-9 {
			t.Errorf("%s: dp=%g greedy=%g, want 0 < greedy <= dp",
				sp.Spec, sp.DPThroughput, sp.GreedyThroughput)
		}
		// The sleep-emulated runtime should land near the model bound; allow
		// wide slack for loaded CI machines but reject nonsense.
		if sp.FxrtEfficiency < 0.2 || sp.FxrtEfficiency > 1.5 {
			t.Errorf("%s: fxrt efficiency %g outside [0.2, 1.5]", sp.Spec, sp.FxrtEfficiency)
		}
		if sp.Mapping == "" || sp.Tasks == 0 || sp.Procs == 0 {
			t.Errorf("%s: incomplete record %+v", sp.Spec, sp)
		}
	}

	if len(rep.Kernels) != 2 || rep.Kernels[0].App != "ffthist" || rep.Kernels[0].Shape != "128x128" ||
		rep.Kernels[1].App != "radar" || rep.Kernels[1].Shape != "16x256" {
		t.Errorf("kernels = %+v, want ffthist 128x128 and radar 16x256", rep.Kernels)
	}
	for _, k := range rep.Kernels {
		if k.Seconds <= 0 {
			t.Errorf("%s %s: non-positive kernel time %g", k.App, k.Shape, k.Seconds)
		}
	}

	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"goVersion"`, `"specs"`, `"dpSolveSeconds"`, `"greedySolveSeconds"`,
		`"fxrtThroughput"`, `"fxrtEfficiency"`, `"mapping"`, `"kernels"`,
	} {
		if !strings.Contains(string(buf), key) {
			t.Errorf("report JSON missing %s", key)
		}
	}

	table := RenderPerf(rep)
	if !strings.Contains(table, "threestage") || !strings.Contains(table, "ffthist256") {
		t.Errorf("rendered table missing spec rows:\n%s", table)
	}
}

func TestRunPerfBadSpec(t *testing.T) {
	if _, err := RunPerf([]string{"no-such-spec.json"}, PerfOptions{Runs: 1, DataSets: 4}); err == nil {
		t.Error("missing spec accepted")
	}
}

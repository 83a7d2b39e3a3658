// Command benchrun records the repo's performance trajectory: it times the
// DP and greedy solvers on the committed chain specs, times one adaptive
// controller decision cycle (ingest + refit + re-solve — the latency the
// closed loop adds per decision), times the rebalances of a
// fixed fleet churn script, measures the fault-tolerant runtime's
// throughput against the model bound, times the served applications'
// kernels per data set, and writes the report to BENCH_solver.json.
// Commit the refreshed file to extend the perf history; CI runs a
// reduced-size pass (-quick) and uploads the report as an artifact.
//
// Usage:
//
//	go run ./cmd/benchrun [-out BENCH_solver.json] [-quick] [spec...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pipemap/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	out := fs.String("out", "BENCH_solver.json", "output path for the JSON report (empty = stdout only)")
	gate := fs.String("gate", "", "baseline BENCH_solver.json to gate against: fail when a spec's adapt decision latency, cold DP solve time or fleet rebalance latency, or a served app's kernel time per data set, regresses more than 2x (with a 0.5ms absolute floor)")
	quick := fs.Bool("quick", false, "reduced-size run for CI (fewer data sets, faster emulation)")
	runs := fs.Int("runs", 0, "timing repetitions per solver (0 = default)")
	datasets := fs.Int("datasets", 0, "data sets streamed through the runtime (0 = default)")
	speedup := fs.Float64("speedup", 0, "runtime time compression (0 = default)")
	fs.SetOutput(stdout)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	specs := fs.Args()
	if len(specs) == 0 {
		specs = []string{"specs/ffthist256.json", "specs/radar64.json", "specs/stereo128.json", "specs/threestage.json"}
	}
	opt := bench.PerfOptions{Runs: *runs, DataSets: *datasets, Speedup: *speedup}
	if *quick {
		// Quick runs time the same three repetitions as full runs, so the
		// gate compares a median with the baseline's median.
		if opt.DataSets == 0 {
			opt.DataSets = 80
		}
		if opt.Speedup == 0 {
			opt.Speedup = 200
		}
	}

	rep, err := bench.RunPerf(specs, opt)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, bench.RenderPerf(rep))

	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *gate != "" {
		if err := gateAgainst(*gate, rep, stdout); err != nil {
			return err
		}
	}
	return nil
}

// gateFloorSeconds is the absolute regression floor: sub-half-millisecond
// latencies are within scheduler noise of each other, so a 2x move below
// the floor is not a regression.
const gateFloorSeconds = 0.0005

// gatedMetrics are the per-spec latencies the gate checks, each by the
// same rule: fail above 2x the baseline and above the floor.
var gatedMetrics = []struct {
	name string
	get  func(bench.SpecPerf) float64
}{
	{"adapt decision", func(sp bench.SpecPerf) float64 { return sp.AdaptDecisionSeconds }},
	{"dp solve", func(sp bench.SpecPerf) float64 { return sp.DPSolveSeconds }},
	{"fleet rebalance", func(sp bench.SpecPerf) float64 { return sp.FleetRebalanceSeconds }},
}

// gateAgainst compares the fresh report's gated latencies — each spec's
// and each served app's kernel time — to the committed baseline and fails
// on a >2x regression above the floor. Specs and apps absent from the
// baseline, and metrics it does not record, pass (they are new).
func gateAgainst(baselinePath string, rep bench.PerfReport, stdout io.Writer) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("gate baseline: %w", err)
	}
	var base bench.PerfReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("gate baseline %s: %w", baselinePath, err)
	}
	var failures []string
	check := func(subject, metric string, now, old float64) {
		if old <= 0 {
			return
		}
		verdict := "ok"
		if now > 2*old && now > gateFloorSeconds {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %s %.3fms vs baseline %.3fms (>2x)",
				subject, metric, now*1e3, old*1e3))
		}
		fmt.Fprintf(stdout, "gate %-28s %-14s %8.3fms baseline %8.3fms  %s\n",
			subject, metric, now*1e3, old*1e3, verdict)
	}
	baseline := make(map[string]bench.SpecPerf, len(base.Specs))
	for _, sp := range base.Specs {
		baseline[sp.Spec] = sp
	}
	for _, sp := range rep.Specs {
		oldSp, ok := baseline[sp.Spec]
		if !ok {
			continue
		}
		for _, m := range gatedMetrics {
			check(sp.Spec, m.name, m.get(sp), m.get(oldSp))
		}
	}
	baseKernels := make(map[string]float64, len(base.Kernels))
	for _, k := range base.Kernels {
		baseKernels[k.App+" "+k.Shape] = k.Seconds
	}
	for _, k := range rep.Kernels {
		check(k.App+" "+k.Shape, "kernels", k.Seconds, baseKernels[k.App+" "+k.Shape])
	}
	if len(failures) > 0 {
		return fmt.Errorf("latency gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// Command perfbench is the repository benchmark: it serves real radar and
// FFT-Hist kernels over HTTP through the ingestion plane, and solves,
// replans, rebalances and emulates the served chain spec in process.
// Every layer is timed from outside, around calls into the packages' public
// seams; see README.md for the workloads and the metric → layer map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-radar --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off (--trace 0). Every workload reports every one of them; the
// README says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rps", "req/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"solve_ms", "ms"},
	{"rebalance_ms", "ms"},
	{"model_efficiency", "ratio"},
}

// specNames are the four committed chain specs, in report order.
var specNames = []string{"radar64", "ffthist256", "stereo128", "threestage"}

// perLayer are the traced-run metrics (--trace 1). A layer a workload does
// not exercise reads 0 there (e.g. the transpose transfer, or the dp.<spec>
// metrics of the spec it does not serve).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"http.handler_us", "us"},
		{"http.wire_us", "us"},
		{"apps.decode_us", "us"},
		{"apps.encode_us", "us"},
		{"ingest.admit_us", "us"},
		{"ingest.queue_wait_p50_us", "us"},
		{"ingest.queue_wait_p99_us", "us"},
		{"ingest.shed", "count"},
		{"ingest.fail", "count"},
		{"fxrt.push_block_p50_us", "us"},
		{"fxrt.push_block_p99_us", "us"},
		{"fxrt.stage0.wait_us", "us"},
		{"fxrt.stage1.wait_us", "us"},
		{"fxrt.sink_us", "us"},
		{"fxrt.transfer.transpose_ms", "ms"},
		{"fxrt.hop_us", "us"},
		{"fxrt.retries", "count"},
		{"fxrt.sleep_floor_us", "us"},
	}
	for _, s := range specNames {
		defs = append(defs, metricDef{"fxrt.model." + s + ".efficiency", "ratio"})
	}
	defs = append(defs,
		metricDef{"kernels.stage0.compute_ms", "ms"},
		metricDef{"kernels.stage1.compute_ms", "ms"},
		metricDef{"kernels.stage0.busy_frac", "ratio"},
		metricDef{"kernels.stage1.busy_frac", "ratio"},
	)
	for _, a := range []serveApp{radarApp, ffthistApp} {
		defs = append(defs, metricDef{"dp." + a.spec + ".solve_ms", "ms"})
	}
	for _, a := range []serveApp{radarApp, ffthistApp} {
		defs = append(defs, metricDef{"dp." + a.spec + ".resolve_us", "us"})
	}
	return append(defs,
		metricDef{"greedy.solve_us", "us"},
		metricDef{"adapt.replan_us", "us"},
		metricDef{"adapt.memo_hit_rate", "ratio"},
		metricDef{"adapt.ticks", "count"},
		metricDef{"fleet.admit_ms", "ms"},
		metricDef{"fleet.fail_ms", "ms"},
		metricDef{"fleet.cache_hit_rate", "ratio"},
		metricDef{"fleet.lookups", "count"},
		metricDef{"obs.trace_overhead_frac", "ratio"},
		metricDef{"obs.unattributed_frac", "ratio"},
		metricDef{"loadgen.late_p99_us", "us"},
		metricDef{"host.speed", "ratio"},
	)
}()

// run carries one invocation's settings and accumulates its results.
type run struct {
	root    string
	seed    int64
	seconds float64
	traced  bool

	values    map[string]float64
	chunkNS   []float64 // the host probe's chunk times
	attempted int64
	failed    int64
	errs      []string // correctness failures
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// fail records a correctness failure; the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
	}
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

// logf prints one human-readable report line.
func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final JSON line: every end-to-end metric with
// tracing off, every per-layer metric with tracing on.
func (r *run) result() (resultOut, error) {
	out := resultOut{
		Correct:   len(r.errs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// workloads maps each workload name to the app it serves.
var workloads = map[string]serveApp{
	"serve-radar":   radarApp,
	"serve-ffthist": ffthistApp,
}

func main() {
	workload := flag.String("workload", "", "workload: serve-radar or serve-ffthist")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	root := flag.String("root", ".", "repository root holding specs/")
	flag.Parse()

	app, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (serve-radar|serve-ffthist), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		root:    *root,
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		values:  map[string]float64{},
	}
	floor := sleepFloor()
	r.set("fxrt.sleep_floor_us", floor)
	logf("perfbench workload=%s seed=%d seconds=%g trace=%d", *workload, *seed, *seconds, *trace)
	logf("provenance: nproc=%d GOMAXPROCS=%d go=%s connections=%d rates=serve-radar:%g/s serve-ffthist:%g/s sleep_floor=%.1fus",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), conns(),
		radarApp.rate, ffthistApp.rate, floor)

	if err := serveWorkload(r, app); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var names []string
	for name, m := range res.Metrics {
		names = append(names, fmt.Sprintf("%s=%.6g%s", name, m.Value, m.Unit))
	}
	sort.Strings(names)
	logf("metrics: %s", strings.Join(names, " "))
	logf("attempted=%d failed=%d fail_frac=%.6g correct=%v", res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted), res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// conns is the load generator's connection count: one keep-alive
// connection per CPU, as a single client process on this host would use.
func conns() int { return runtime.NumCPU() }

// sleepFloor probes the shortest wall time a short time.Sleep actually
// takes on this host: the median of 100µs sleeps, in µs. Emulated stages
// whose modelled time is below it run slower than the model says, which is
// the residual behind model_efficiency on serve-radar.
func sleepFloor() float64 {
	const n = 100
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		time.Sleep(100 * time.Microsecond)
		xs[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	return pct(xs, 0.5)
}

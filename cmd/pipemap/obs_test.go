package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chromeTraceFile mirrors the Chrome trace_event JSON object format for
// schema-checking the -trace output.
type chromeTraceFile struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// checkChromeTrace asserts that path holds a structurally valid Chrome
// trace and returns the parsed file.
func checkChromeTrace(t *testing.T, path string) chromeTraceFile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf chromeTraceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tf.DisplayTimeUnit)
	}
	for _, e := range tf.TraceEvents {
		if e.Name == "" {
			t.Error("event with empty name")
		}
		switch e.Phase {
		case "X":
			if e.Dur < 0 {
				t.Errorf("span %q has negative duration", e.Name)
			}
		case "i", "M":
		default:
			t.Errorf("unknown phase %q on event %q", e.Phase, e.Name)
		}
	}
	return tf
}

// TestRunTraceAndMetrics is the acceptance check: -trace on the FFT/
// histogram spec must produce valid Chrome trace JSON with solver spans,
// and -metrics must append the run's registry, as a valid exposition,
// with the DP counters and the one core.Map timing.
func TestRunTraceAndMetrics(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-trace", tracePath, "-metrics", "testdata/ffthist256.json"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	tf := checkChromeTrace(t, tracePath)
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var sawLayer, sawSolve, sawMap bool
	for _, e := range tf.TraceEvents {
		if e.Cat == "dp" && strings.Contains(e.Name, "layer") {
			sawLayer = true
			if e.Args["states"] == nil {
				t.Errorf("layer span %q missing states arg", e.Name)
			}
		}
		if e.Cat == "dp" && e.Name == "map_chain" {
			sawSolve = true
		}
		if e.Cat == "core" && e.Name == "map" {
			sawMap = true
		}
	}
	if !sawLayer || !sawSolve || !sawMap {
		t.Errorf("missing solver spans: layer=%v solve=%v map=%v", sawLayer, sawSolve, sawMap)
	}

	report := out.String()
	_, section, ok := strings.Cut(report, "\nmetrics:\n")
	if !ok {
		t.Fatalf("report missing metrics section:\n%s", report)
	}
	section, _, _ = strings.Cut(section, "\ntrace written to")
	// -metrics prints the registry in the exposition /metrics serves.
	lintExposition(t, section)
	for _, want := range []string{"dp_map_chain_states_total ", "dp_map_chain_pruned_total ", "core_map_seconds_count 1\n"} {
		if !strings.Contains(section, want) {
			t.Errorf("metrics missing %q:\n%s", want, section)
		}
	}
	if !strings.Contains(report, "trace written to") {
		t.Errorf("report missing trace confirmation:\n%s", report)
	}
}

// TestRunTraceWithJSONOutput checks that -json keeps stdout pure JSON
// while still writing the trace file.
func TestRunTraceWithJSONOutput(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-trace", tracePath}, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	var mapping map[string]any
	if err := json.Unmarshal(out.Bytes(), &mapping); err != nil {
		t.Fatalf("-json output polluted: %v\n%s", err, out.String())
	}
	if tf := checkChromeTrace(t, tracePath); len(tf.TraceEvents) == 0 {
		t.Error("trace empty despite -json run")
	}
}

// TestRunProfiles checks that the pprof flags write non-empty profile
// files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "mem.pb")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-cpuprofile", cpu, "-memprofile", mem}, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	// The heap profile is written by a deferred helper; both files must
	// exist. (CPU profiles of sub-millisecond runs may have no samples but
	// still carry a valid header.)
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

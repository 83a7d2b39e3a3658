package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

const specJSON = `{
  "platform": {"procs": 16, "memPerProc": 0.5},
  "tasks": [
    {"name": "a", "exec": [0.01, 1.0, 0.002], "mem": {"data": 0.6}, "replicable": true},
    {"name": "b", "exec": [0.02, 1.5, 0.004], "mem": {"data": 0.8}, "replicable": true}
  ],
  "edges": [
    {"icom": [0.005, 0.2, 0.0005], "ecom": [0.02, 0.1, 0.1, 0.0005, 0.0005]}
  ]
}`

func TestRunFromStdin(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mapping:", "throughput:", "latency:", "processors:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFromFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"testdata/ffthist256.json"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rowffts+hist") {
		t.Errorf("FFT-Hist clustering missing:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-json"}, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Modules []struct {
			Procs, Replicas int
		} `json:"modules"`
	}
	if err := json.Unmarshal(out.Bytes(), &spec); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(spec.Modules) == 0 {
		t.Error("no modules in JSON output")
	}
}

func TestRunWithGrid(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-grid", "4x4"}, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "layout on 4x4 grid") {
		t.Errorf("layout missing:\n%s", out.String())
	}
}

func TestRunAlgorithms(t *testing.T) {
	for _, algo := range []string{"dp", "greedy", "auto"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-algo", algo}, strings.NewReader(specJSON), &out); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunCertifyAndFrontier(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-certify", "-frontier"}, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "certificate:") {
		t.Errorf("certificate missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Errorf("frontier missing:\n%s", out.String())
	}
}

func TestRunObjectives(t *testing.T) {
	var lat bytes.Buffer
	if err := run(context.Background(), []string{"-objective", "latency"}, strings.NewReader(specJSON), &lat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lat.String(), "latency:") {
		t.Errorf("latency output missing:\n%s", lat.String())
	}
	var bounded bytes.Buffer
	if err := run(context.Background(), []string{"-latency-bound", "100"}, strings.NewReader(specJSON), &bounded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bounded.String(), "mapping:") {
		t.Errorf("bounded output missing:\n%s", bounded.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-algo", "quantum"},
		{"-objective", "fame"},
		{"-systolic"},          // requires -grid
		{"-grid", "nonsense"},  // bad grid
		{"-grid", "0x4"},       // invalid grid
		{"/no/such/file.json"}, // missing file
		// Latency objectives cannot honour machine constraints.
		{"-objective", "latency", "-grid", "2x2"},
		{"-latency-bound", "100", "-grid", "8x8"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(context.Background(), args, strings.NewReader(specJSON), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), nil, strings.NewReader("{"), &out); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := parseGrid("8x8")
	if err != nil || g.Rows != 8 || g.Cols != 8 {
		t.Errorf("parseGrid(8x8) = %v, %v", g, err)
	}
	if _, err := parseGrid("8"); err == nil {
		t.Error("parseGrid(8) accepted")
	}
	if _, err := parseGrid("ax8"); err == nil {
		t.Error("parseGrid(ax8) accepted")
	}
	if _, err := parseGrid("8xb"); err == nil {
		t.Error("parseGrid(8xb) accepted")
	}
}

func TestRunFailProcs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fail-procs", "4"}, strings.NewReader(specJSON), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "degraded after losing 4 processors (12 survive)") {
		t.Errorf("degraded report missing:\n%s", s)
	}
	if !strings.Contains(s, "% of nominal") {
		t.Errorf("nominal comparison missing:\n%s", s)
	}
}

func TestRunFailProcsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fail-procs", "-1"},
		{"-fail-procs", "16"},  // loses every processor
		{"-fail-procs", "100"}, // more than the machine has
		{"-fail-procs", "4", "-json"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, strings.NewReader(specJSON), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunMalformedSpecs feeds structurally broken variants of the valid
// specs/threestage.json baseline and asserts a clean error (no panic).
func TestRunMalformedSpecs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"../../specs/threestage.json"}, nil, &out); err != nil {
		t.Fatalf("valid baseline spec rejected: %v", err)
	}
	cases := map[string]string{
		"negative procs": `{
		  "platform": {"procs": -4, "memPerProc": 0.5},
		  "tasks": [{"name": "a", "exec": [0.01, 0.8, 0.001], "mem": {"data": 1.0}, "replicable": true}],
		  "edges": []
		}`,
		"zero procs": `{
		  "platform": {"procs": 0, "memPerProc": 0.5},
		  "tasks": [{"name": "a", "exec": [0.01, 0.8, 0.001], "replicable": true}],
		  "edges": []
		}`,
		"zero tasks": `{
		  "platform": {"procs": 32, "memPerProc": 0.5},
		  "tasks": [],
		  "edges": []
		}`,
		"edge count mismatch": `{
		  "platform": {"procs": 32, "memPerProc": 0.5},
		  "tasks": [{"name": "a", "exec": [0.01, 0.8, 0.001], "replicable": true}],
		  "edges": [{"icom": [], "ecom": [0.05, 0.3, 0.3, 0.0005, 0.0005]}]
		}`,
		"bad exec arity": `{
		  "platform": {"procs": 32, "memPerProc": 0.5},
		  "tasks": [{"name": "a", "exec": [0.01], "replicable": true}],
		  "edges": []
		}`,
		"negative memory": `{
		  "platform": {"procs": 32, "memPerProc": -0.5},
		  "tasks": [{"name": "a", "exec": [0.01, 0.8, 0.001], "replicable": true}],
		  "edges": []
		}`,
	}
	for name, spec := range cases {
		var out bytes.Buffer
		if err := run(context.Background(), nil, strings.NewReader(spec), &out); err == nil {
			t.Errorf("%s: malformed spec accepted", name)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe output sink for a run() driven in the
// background.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRe = regexp.MustCompile(`http://([0-9.]+:[0-9]+)`)

// waitFor polls the buffer until re matches or the deadline passes.
func waitFor(t *testing.T, buf *syncBuffer, re *regexp.Regexp, done <-chan error) []string {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early (err=%v), output:\n%s", err, buf.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("timeout waiting for %v, output:\n%s", re, buf.String())
	return nil
}

func httpGet(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServeAcceptance runs the full acceptance path: solve
// specs/ffthist256.json, run it fault-tolerant with an injected instance
// death, and check the served endpoints — valid Prometheus text on
// /metrics, bottleneck = argmax observed period on /pipeline, and /readyz
// flipping to 503/degraded after the death.
func TestServeAcceptance(t *testing.T) {
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-serve", "127.0.0.1:0",
			"-serve-n", "120",
			"-serve-speedup", "400",
			"-serve-for", "4s",
			"-serve-kill", "auto",
			"../../specs/ffthist256.json",
		}, strings.NewReader(""), buf)
	}()
	addr := waitFor(t, buf, addrRe, done)[1]
	// The injected permanent failure kills an instance within the first few
	// data sets; wait for the run summary so the health model is settled.
	waitFor(t, buf, regexp.MustCompile(`run complete`), done)

	// /healthz
	code, body, _ := httpGet(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// /metrics: valid exposition carrying pipeline and solver families.
	code, body, hdr := httpGet(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	lintExposition(t, body)
	for _, want := range []string{
		"pipemap_stage_period_seconds{stage=", "pipemap_stage_deaths_total{stage=",
		"pipemap_degraded 1", "pipemap_up 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Solver metrics merged from the static registry (dotted names
	// sanitized to underscores: "core.map_seconds" -> core_map_seconds).
	if !strings.Contains(body, "core_map_seconds") {
		t.Errorf("/metrics carries no solver metrics:\n%s", body)
	}

	// /pipeline: bottleneck is the argmax of observed periods and an
	// instance death is recorded.
	code, body, hdr = httpGet(t, "http://"+addr+"/pipeline")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/pipeline = %d %q", code, hdr.Get("Content-Type"))
	}
	var h struct {
		Status          string `json:"status"`
		Ready           bool   `json:"ready"`
		Deaths          int64  `json:"deaths"`
		BottleneckStage int    `json:"bottleneckStage"`
		Stages          []struct {
			Name           string  `json:"name"`
			ObservedPeriod float64 `json:"observedPeriod"`
			Bottleneck     bool    `json:"bottleneck"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/pipeline JSON: %v\n%s", err, body)
	}
	if len(h.Stages) != 2 {
		t.Fatalf("/pipeline stages = %d, want 2 (ffthist maps to two modules)", len(h.Stages))
	}
	arg := 0
	for i := range h.Stages {
		if h.Stages[i].ObservedPeriod > h.Stages[arg].ObservedPeriod {
			arg = i
		}
	}
	if h.BottleneckStage != arg || !h.Stages[arg].Bottleneck {
		t.Errorf("bottleneckStage = %d, argmax observed period = %d (%+v)",
			h.BottleneckStage, arg, h.Stages)
	}
	if h.Deaths < 1 {
		t.Errorf("deaths = %d, want >= 1 after -serve-kill", h.Deaths)
	}

	// /readyz: degraded after the injected death.
	code, body, _ = httpGet(t, "http://"+addr+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d, want 503 when degraded", code)
	}
	var rz struct {
		Ready  bool   `json:"ready"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &rz); err != nil {
		t.Fatalf("/readyz JSON: %v", err)
	}
	if rz.Ready || rz.Status != "degraded" {
		t.Errorf("/readyz = %+v, want not-ready degraded", rz)
	}

	// /events carries the death.
	code, body, _ = httpGet(t, "http://"+addr+"/events?follow=0")
	if code != http.StatusOK || !strings.Contains(body, `"kind":"death"`) {
		t.Errorf("/events = %d, want a death event:\n%s", code, body)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "degraded") {
		t.Errorf("run summary does not mention degradation:\n%s", buf.String())
	}
}

var (
	expoSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	expoTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram|untyped)$`)
)

// lintExposition checks every line of a Prometheus text exposition parses.
func lintExposition(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !expoTypeRe.MatchString(line) {
				t.Errorf("malformed comment line: %q", line)
			}
			continue
		}
		if !expoSampleRe.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-serve", ":0", "-json", "../../specs/threestage.json"},
		strings.NewReader(""), io.Discard); err == nil {
		t.Error("-serve -json accepted")
	}
	if err := run(context.Background(), []string{"-serve", ":0", "-serve-n", "1", "../../specs/threestage.json"},
		strings.NewReader(""), io.Discard); err == nil {
		t.Error("-serve-n 1 accepted")
	}
	if err := run(context.Background(), []string{"-serve", ":0", "-serve-kill", "9:9", "-serve-for", "1ms",
		"../../specs/threestage.json"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("out-of-range -serve-kill accepted")
	}
	if err := run(context.Background(), []string{"-serve", ":0", "-serve-kill", "bogus", "-serve-for", "1ms",
		"../../specs/threestage.json"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("malformed -serve-kill accepted")
	}
}

// TestServeAdaptiveAcceptance drives the closed loop through the CLI: a
// kill-injected generation 0 degrades, the controller remaps onto the
// surviving processors, and /pipeline's controller key reports the
// generation bump; adapt_* series appear on /metrics.
func TestServeAdaptiveAcceptance(t *testing.T) {
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-serve", "127.0.0.1:0",
			"-serve-n", "400",
			"-serve-speedup", "400",
			"-serve-for", "4s",
			"-serve-kill", "auto",
			"-adapt",
			"-adapt-interval", "250ms",
			"-adapt-threshold", "0.02",
			"../../specs/threestage.json",
		}, strings.NewReader(""), buf)
	}()
	addr := waitFor(t, buf, addrRe, done)
	waitFor(t, buf, regexp.MustCompile(`run complete`), done)
	// Decisions follow -adapt-interval in wall time, so the migration may
	// land after the run.
	waitFor(t, buf, regexp.MustCompile(`migrate -> generation`), done)

	code, body, _ := httpGet(t, "http://"+addr[1]+"/pipeline")
	if code != http.StatusOK {
		t.Fatalf("/pipeline = %d", code)
	}
	var payload struct {
		Controller struct {
			Enabled      bool    `json:"enabled"`
			Generation   int     `json:"generation"`
			Migrations   int     `json:"migrations"`
			LostProcs    int     `json:"lostProcs"`
			Threshold    float64 `json:"threshold"`
			LastDecision *struct {
				Action string `json:"action"`
			} `json:"lastDecision"`
		} `json:"controller"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/pipeline JSON: %v\n%s", err, body)
	}
	ctrl := payload.Controller
	if !ctrl.Enabled {
		t.Error("controller not reported enabled on /pipeline")
	}
	if ctrl.Generation < 1 || ctrl.Migrations < 1 {
		t.Errorf("generation=%d migrations=%d, want both >= 1 after the injected death",
			ctrl.Generation, ctrl.Migrations)
	}
	if ctrl.LostProcs < 1 {
		t.Errorf("lostProcs=%d, want >= 1", ctrl.LostProcs)
	}
	if ctrl.Threshold != 0.02 {
		t.Errorf("threshold=%g, want the -adapt-threshold value 0.02", ctrl.Threshold)
	}
	if ctrl.LastDecision == nil {
		t.Error("no lastDecision on /pipeline controller payload")
	}

	code, body, _ = httpGet(t, "http://"+addr[1]+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	lintExposition(t, body)
	for _, want := range []string{"adapt_cycles", "adapt_generation", "adapt_migrations"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The migrated generation carries no injected fault, so the served
	// (current-generation) health model is nominal and ready again.
	code, _, _ = httpGet(t, "http://"+addr[1]+"/readyz")
	if code != http.StatusOK {
		t.Errorf("/readyz = %d after remap, want 200 (new generation is healthy)", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !regexp.MustCompile(`migrate -> generation [1-9]`).MatchString(out) {
		t.Errorf("run output has no migration line:\n%s", out)
	}
	if !strings.Contains(out, "generation(s)") {
		t.Errorf("run output has no generation summary:\n%s", out)
	}
}

func TestAdaptFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-adapt", "../../specs/threestage.json"},
		strings.NewReader(""), io.Discard); err == nil {
		t.Error("-adapt without -serve accepted")
	}
}

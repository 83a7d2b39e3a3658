package live

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testServer builds a started monitor with traffic on it and a registry
// holding serving and solver instruments, behind an httptest server.
func testServer(t *testing.T) (*httptest.Server, *Monitor, *VirtualClock) {
	t.Helper()
	vc := NewVirtualClock()
	cfg := ConfigFromMapping(testMapping())
	cfg.Options = Options{Window: 30 * time.Second, Clock: vc.Clock()}
	mon := NewMonitor(cfg)
	vc.SetSeconds(1)
	mon.Start()
	for i := 0; i < 20; i++ {
		mon.StageDone(0, 0.2)
		mon.StageDone(1, 0.3)
		mon.Completed(0.5)
	}

	reg := NewRegistry(Options{Window: 30 * time.Second, Clock: vc.Clock()})
	reg.Counter("serve.requests").Add(3)
	reg.Gauge("serve.depth").Set(2)
	reg.Histogram("serve.latency").Observe(0.01)
	reg.Counter("dp.states").Add(100)
	reg.Histogram("dp.layer_seconds").Observe(0.002)

	srv := NewServer(ServerOptions{
		Monitor:  mon,
		Registry: reg,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, mon, vc
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, string(body)
}

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
)

// lintProm validates Prometheus text exposition 0.0.4: every sample line
// parses, metric and label names are legal, every sample's family has a
// TYPE declared first, and the series of one family are consecutive.
func lintProm(t *testing.T, body string) map[string]string {
	t.Helper()
	typed := map[string]string{}
	lastFamily := ""
	closedFamilies := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed comment line: %q", line)
				continue
			}
			if _, dup := typed[m[1]]; dup {
				t.Errorf("duplicate TYPE for %s", m[1])
			}
			typed[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := m[1]
		if !promNameRe.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
		family := name
		if _, ok := typed[family]; !ok {
			// Summary children share the parent's TYPE.
			for _, suffix := range []string{"_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suffix); found {
					if _, ok := typed[base]; ok {
						family = base
						break
					}
				}
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
		if family != lastFamily {
			if closedFamilies[family] {
				t.Errorf("family %s interleaved with other families", family)
			}
			if lastFamily != "" {
				closedFamilies[lastFamily] = true
			}
			lastFamily = family
		}
		if m[3] != "" {
			for _, pair := range splitLabels(m[3]) {
				k, _, ok := strings.Cut(pair, "=")
				if !ok || !promLabelRe.MatchString(k) {
					t.Errorf("bad label %q in %q", pair, line)
				}
			}
		}
	}
	return typed
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want Prometheus 0.0.4", ct)
	}
	typed := lintProm(t, body)
	for _, want := range []string{
		"pipemap_up", "pipemap_ready", "pipemap_degraded",
		"pipemap_datasets_completed_total", "pipemap_throughput_datasets_per_second",
		"pipemap_bottleneck_stage", "pipemap_latency_seconds",
		"pipemap_stage_period_seconds", "pipemap_stage_live_replicas",
		"serve_requests_total", "serve_depth", "serve_latency",
		"dp_states_total", "dp_layer_seconds",
	} {
		if _, ok := typed[want]; !ok {
			t.Errorf("metric family %s missing from exposition", want)
		}
	}
	if !strings.Contains(body, `pipemap_stage_period_seconds{stage="a"}`) {
		t.Errorf("per-stage series with stage label missing:\n%s", body)
	}
	if !strings.Contains(body, `quantile="0.99"`) {
		t.Error("summary quantile series missing")
	}
}

func TestHealthzReadyzPipeline(t *testing.T) {
	ts, mon, _ := testServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz nominal = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/readyz content type = %q", ct)
	}

	resp, body = get(t, ts.URL+"/pipeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/pipeline = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/pipeline content type = %q", ct)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/pipeline JSON: %v\n%s", err, body)
	}
	if len(h.Stages) != 2 || h.Status != "nominal" || !h.Ready {
		t.Fatalf("/pipeline health = %+v", h)
	}
	// The reported bottleneck is the argmax of the observed periods.
	arg := 0
	for i, sh := range h.Stages {
		if sh.ObservedPeriod > h.Stages[arg].ObservedPeriod {
			arg = i
		}
	}
	if h.BottleneckStage != arg {
		t.Errorf("bottleneckStage = %d, argmax observed period = %d", h.BottleneckStage, arg)
	}

	// Kill a replica: /readyz flips to 503 degraded.
	mon.InstanceDeath(0, 11)
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after death = %d, want 503", resp.StatusCode)
	}
	var rz struct {
		Ready  bool   `json:"ready"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &rz); err != nil {
		t.Fatalf("/readyz JSON: %v", err)
	}
	if rz.Ready || rz.Status != "degraded" {
		t.Errorf("/readyz after death = %+v", rz)
	}
}

func TestReadyzNoMonitor(t *testing.T) {
	srv := NewServer(ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz without monitor = %d, want 503", resp.StatusCode)
	}
	// /metrics still answers with an empty (but valid) exposition.
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics without sources = %d, want 200", resp.StatusCode)
	}
	lintProm(t, body)
}

func TestEventsEndpoint(t *testing.T) {
	ts, mon, _ := testServer(t)
	mon.StageRetry(1, 4)
	mon.InstanceDeath(0, 9)
	resp, body := get(t, ts.URL+"/events?follow=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/events content type = %q", ct)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != "retry" || kinds[1] != "death" {
		t.Fatalf("event kinds = %v, want [retry death]", kinds)
	}
}

func TestIndexAndPprofRoutes(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, body := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/no-such-page")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}

func TestServerStartClose(t *testing.T) {
	srv := NewServer(ServerOptions{DisablePprof: true})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, _ := get(t, "http://"+addr+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over TCP = %d", resp.StatusCode)
	}
	resp, _ = get(t, "http://"+addr+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof with DisablePprof = %d, want 404", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func TestReadyzDuringDrain(t *testing.T) {
	ts, mon, _ := testServer(t)

	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d before drain, want 200", resp.StatusCode)
	}

	mon.SetDraining(true)
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d during drain, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "migration drain in progress") {
		t.Errorf("readyz drain body %q missing the drain reason", body)
	}
	_, body = get(t, ts.URL+"/pipeline")
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("pipeline JSON: %v", err)
	}
	if !h.Draining || h.Ready {
		t.Errorf("pipeline during drain: draining=%v ready=%v, want true/false", h.Draining, h.Ready)
	}

	mon.SetDraining(false)
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d after drain, want 200", resp.StatusCode)
	}

	var starts, ends int
	for _, ev := range mon.Events().History() {
		switch ev.Kind {
		case "drain-start":
			starts++
		case "drain-end":
			ends++
		}
	}
	if starts != 1 || ends != 1 {
		t.Errorf("drain events start=%d end=%d, want 1/1", starts, ends)
	}
	// Setting the same state twice must not duplicate events.
	mon.SetDraining(false)
	if got := len(mon.Events().History()); got != 2 {
		t.Errorf("%d events after idempotent SetDraining, want 2", got)
	}
}

func TestPipelineControllerKeyAndSourceSwap(t *testing.T) {
	monA := NewMonitor(Config{Mapping: "gen-0", Stages: []StageInfo{{Name: "a", Replicas: 1}}})
	monA.Start()
	monB := NewMonitor(Config{Mapping: "gen-1", Stages: []StageInfo{{Name: "a", Replicas: 1}}})
	monB.Start()

	current := monA
	srv := NewServer(ServerOptions{
		Source:     func() *Monitor { return current },
		Controller: func() any { return map[string]any{"generation": 7} },
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	_, body := get(t, ts.URL+"/pipeline")
	var payload struct {
		Health
		Controller map[string]any `json:"controller"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("pipeline JSON: %v", err)
	}
	if payload.Mapping != "gen-0" {
		t.Errorf("pipeline mapping %q, want gen-0", payload.Mapping)
	}
	if payload.Controller["generation"] != float64(7) {
		t.Errorf("controller payload %v missing generation", payload.Controller)
	}

	// A generation swap behind the Source follows on the next request.
	current = monB
	_, body = get(t, ts.URL+"/pipeline")
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("pipeline JSON after swap: %v", err)
	}
	if payload.Mapping != "gen-1" {
		t.Errorf("pipeline mapping %q after source swap, want gen-1", payload.Mapping)
	}
	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz %d via Source, want 200", resp.StatusCode)
	}
}

func TestEventsClientDisconnectUnblocksFollow(t *testing.T) {
	mon := NewMonitor(Config{Stages: []StageInfo{{Name: "s0", Workers: 1, Replicas: 1}}})
	mon.Start()
	srv := NewServer(ServerOptions{Monitor: mon, DisablePprof: true})
	req := httptest.NewRequest("GET", "/events", nil)
	ctx, cancel := context.WithCancel(req.Context())
	req = req.WithContext(ctx)
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the handler enter its follow loop
	mon.StageRetry(0, 1)
	select {
	case <-done:
		t.Fatal("follow stream ended while the client was still connected")
	default:
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("events handler did not return after the client disconnected")
	}
}

func TestEventsCanceledContextAbortsHistoryReplay(t *testing.T) {
	mon := NewMonitor(Config{Stages: []StageInfo{{Name: "s0", Workers: 1, Replicas: 1}}})
	mon.Start()
	for i := 0; i < 200; i++ {
		mon.StageRetry(0, i)
	}
	srv := NewServer(ServerOptions{Monitor: mon, DisablePprof: true})
	req := httptest.NewRequest("GET", "/events", nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // the client is already gone
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("events handler pinned on history replay for a gone client")
	}
	if body := rec.Body.String(); strings.Count(body, "\n") >= 200 {
		t.Fatalf("full history replayed to a disconnected client (%d lines)", strings.Count(body, "\n"))
	}
}

func TestPipelineIngestKeyAndExtraRoutes(t *testing.T) {
	mon := NewMonitor(Config{Stages: []StageInfo{{Name: "s0", Workers: 1, Replicas: 1}}})
	mon.Start()
	srv := NewServer(ServerOptions{
		Monitor: mon,
		Ingest:  func() any { return map[string]any{"queueDepth": 3} },
		Extra: map[string]http.Handler{
			"/v1/echo": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "echo")
			}),
		},
		DisablePprof: true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/pipeline")
	var payload struct {
		Health
		Ingest map[string]any `json:"ingest"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("pipeline JSON: %v", err)
	}
	if payload.Ingest["queueDepth"] != float64(3) {
		t.Fatalf("pipeline ingest payload = %v, want queueDepth 3", payload.Ingest)
	}
	resp, body := get(t, ts.URL+"/v1/echo")
	if resp.StatusCode != http.StatusOK || body != "echo" {
		t.Fatalf("/v1/echo = %d %q, want mounted extra handler", resp.StatusCode, body)
	}
	_, body = get(t, ts.URL+"/")
	if !strings.Contains(body, "/v1/echo") {
		t.Fatalf("index does not list the extra route: %q", body)
	}
}

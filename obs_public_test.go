package pipemap_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipemap"
)

// TestPublicObservability exercises the observability surface through the
// public API only: attach a tracer and registry to a request, solve, write
// the trace, and scrape the registry from a LiveServer.
func TestPublicObservability(t *testing.T) {
	chain := exampleChain()
	pl := pipemap.Platform{Procs: 16, MemPerProc: 1}
	tr := pipemap.NewTracer()
	reg := pipemap.NewMetricsRegistry()
	res, err := pipemap.Map(pipemap.Request{Chain: chain, Platform: pl, Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput predicted")
	}
	if tr.Len() == 0 {
		t.Error("tracer collected no spans")
	}
	var trace bytes.Buffer
	if err := tr.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"traceEvents"`) {
		t.Errorf("trace output not Chrome trace JSON: %s", trace.String())
	}
	if st := reg.Snapshot().Histograms["core.map_seconds"]; st.Count != 1 {
		t.Errorf("core.map_seconds window = %+v, want one sample", st)
	}
	// The registry is what a LiveServer serves on /metrics.
	ts := httptest.NewServer(pipemap.NewLiveServer(pipemap.LiveServerOptions{Registry: reg}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "core_map_seconds_count 1\n") {
		t.Errorf("/metrics missing core_map_seconds_count 1:\n%s", body)
	}
}

// TestPublicLiveObservability drives the live health surface through the
// public API only: solve a mapping, derive a monitor from it, feed
// observations, and scrape the embeddable HTTP handler.
func TestPublicLiveObservability(t *testing.T) {
	chain := exampleChain()
	pl := pipemap.Platform{Procs: 16, MemPerProc: 1}
	res, err := pipemap.Map(pipemap.Request{Chain: chain, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}

	mon := pipemap.NewLiveMonitor(pipemap.LiveConfigFromMapping(res.Mapping))
	mon.Start()
	for i := 0; i < 5; i++ {
		for s := range res.Mapping.Modules {
			mon.StageDone(s, 0.01)
		}
		mon.Completed(0.05)
	}
	h := mon.Health()
	if !h.Started || h.Completed != 5 || h.Status != "nominal" || !h.Ready {
		t.Fatalf("health = %+v, want started/nominal/ready with 5 completions", h)
	}

	srv := pipemap.NewLiveServer(pipemap.LiveServerOptions{Monitor: mon})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for path, want := range map[string]string{
		"/metrics":  "pipemap_datasets_completed_total 5",
		"/healthz":  "ok",
		"/readyz":   `"ready":true`,
		"/pipeline": `"status": "nominal"`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, missing %q:\n%s", path, resp.StatusCode, want, body)
		}
	}

	// A nil monitor is the disabled instrument.
	var off *pipemap.LiveMonitor
	off.StageDone(0, 1)
	off.Completed(1)
	if off.Enabled() || off.Health().Status != "disabled" {
		t.Errorf("nil monitor health = %+v, want disabled", off.Health())
	}
}

// TestPublicRequestTracing exercises the request-tracing and SLO surface
// through the public API: sample a trace, record spans, finish into a
// flight recorder and NDJSON exporter, and evaluate an SLO.
func TestPublicRequestTracing(t *testing.T) {
	fl := pipemap.NewFlightRecorder(8)
	var spans bytes.Buffer
	ex := pipemap.NewSpanExporter(&spans, 0)
	tr := pipemap.NewReqTracer(pipemap.ReqTracerConfig{SampleRate: 1, Flight: fl, Exporter: ex})

	id, rt := tr.Start(pipemap.TraceID{}, false, "tenant", time.Now())
	if rt == nil || id.IsZero() {
		t.Fatal("rate-1 tracer did not sample")
	}
	rt.StageSpan("fft", 0, 0, 0, "ok", time.Now(), time.Millisecond)
	tr.Finish(rt, "ok", time.Millisecond, 2*time.Millisecond)
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fl.Snapshot(); len(got) != 1 || got[0].TraceID != id.String() {
		t.Fatalf("flight snapshot = %+v", got)
	}
	if !strings.Contains(spans.String(), id.String()) {
		t.Error("exporter wrote no span line for the finished trace")
	}

	e := pipemap.NewSLOEngine(pipemap.SLOConfig{
		Objectives: []pipemap.SLOObjective{{Name: "availability", Target: 0.5}},
	})
	e.Record("tenant", true, 1)
	e.Record("tenant", false, 1)
	rep := e.Report()
	if len(rep.Objectives) != 1 || rep.Objectives[0].Total != 2 {
		t.Fatalf("slo report = %+v, want one objective over 2 requests", rep)
	}

	// Nil instruments are disabled and safe.
	var offTr *pipemap.ReqTracer
	var offFl *pipemap.FlightRecorder
	var offSLO *pipemap.SLOEngine
	if _, rt := offTr.Start(pipemap.TraceID{}, true, "t", time.Now()); rt != nil {
		t.Error("nil tracer sampled")
	}
	offFl.Record(nil)
	offSLO.Record("t", true, 1)
}

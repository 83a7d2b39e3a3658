package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// httpPost posts a JSON body and returns status and body.
func httpPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestServeIngestAcceptance runs the full ingestion path through the CLI:
// solve the FFT-Hist spec, stand up the real kernel pipeline behind the
// data plane, submit a data set over HTTP, read the computed histogram
// back, then deliver a graceful drain via context cancellation (the
// SIGTERM path) and check nothing accepted was lost.
func TestServeIngestAcceptance(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-serve", "127.0.0.1:0",
			"-ingest", "ffthist",
			"-ingest-size", "32",
			"-queue-depth", "8",
			"-shed-deadline", "10s",
			"../../specs/ffthist256.json",
		}, strings.NewReader(""), buf)
	}()
	addr := waitFor(t, buf, addrRe, done)[1]
	base := "http://" + addr

	// A well-formed submission computes a real 32x32 FFT histogram.
	code, body := httpPost(t, base+"/v1/submit", `{"tenant": "alpha", "input": {"seed": 7}}`)
	if code != http.StatusOK {
		t.Fatalf("/v1/submit = %d: %s", code, body)
	}
	var sub struct {
		App    string `json:"app"`
		Result struct {
			Count int `json:"count"`
		} `json:"result"`
		SojournMS float64 `json:"sojournMs"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatalf("/v1/submit JSON: %v\n%s", err, body)
	}
	if sub.App != "ffthist" || sub.Result.Count != 32*32 {
		t.Errorf("submit result = app %q count %d, want ffthist %d", sub.App, sub.Result.Count, 32*32)
	}

	// Malformed input is a 400, not a shed.
	code, body = httpPost(t, base+"/v1/submit", `{"input": {"data": [1, 2]}}`)
	if code != http.StatusBadRequest {
		t.Errorf("bad input = %d, want 400: %s", code, body)
	}

	// /v1/ingest serves the plane's stats.
	code, body, _ = httpGet(t, base+"/v1/ingest")
	if code != http.StatusOK {
		t.Fatalf("/v1/ingest = %d", code)
	}
	var st struct {
		Admitted  int64 `json:"admitted"`
		Completed int64 `json:"completed"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/v1/ingest JSON: %v\n%s", err, body)
	}
	if st.Admitted < 1 || st.Completed < 1 {
		t.Errorf("/v1/ingest admitted=%d completed=%d, want both >= 1", st.Admitted, st.Completed)
	}

	// /pipeline embeds the same stats under "ingest".
	code, body, _ = httpGet(t, base+"/pipeline")
	if code != http.StatusOK || !strings.Contains(body, `"ingest"`) {
		t.Errorf("/pipeline = %d, want an ingest key:\n%s", code, body)
	}

	// /metrics exposes the ingest series and still lints.
	code, body, _ = httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	lintExposition(t, body)
	for _, want := range []string{"ingest_admit_total", "ingest_shed_total", "ingest_queue_depth"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The index advertises the mounted submit route.
	if _, idx, _ := httpGet(t, base+"/"); !strings.Contains(idx, "/v1/submit") {
		t.Errorf("index does not list /v1/submit:\n%s", idx)
	}

	// Context cancellation (the SIGTERM path) drains gracefully.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("run did not drain after cancellation:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "drain complete") {
		t.Errorf("no drain summary in output:\n%s", out)
	}
}

// TestServeIngestOverloadSheds saturates a deliberately tiny plane and
// checks overload is graceful: concurrent submissions beyond the queue
// bound receive structured 429/503 sheds immediately, admitted ones still
// complete, and the drain loses nothing.
func TestServeIngestOverloadSheds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-serve", "127.0.0.1:0",
			"-ingest", "ffthist",
			"-ingest-size", "128",
			"-queue-depth", "2",
			"-ingest-dispatchers", "1",
			"-shed-deadline", "30s",
			"../../specs/ffthist256.json",
		}, strings.NewReader(""), buf)
	}()
	addr := waitFor(t, buf, addrRe, done)[1]
	base := "http://" + addr

	const burst = 24
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := httpPost(t, base+"/v1/submit",
				fmt.Sprintf(`{"tenant": "t%d", "input": {"seed": %d}}`, i%3, i))
			switch {
			case code == http.StatusOK:
				ok.Add(1)
			case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
				var e struct {
					Error struct {
						Reason string `json:"reason"`
					} `json:"error"`
				}
				if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Reason == "" {
					t.Errorf("shed body is not structured: %s", body)
				}
				shed.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected status %d: %s", code, body)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() < 1 {
		t.Errorf("no submission completed under overload (ok=%d shed=%d)", ok.Load(), shed.Load())
	}
	if shed.Load() < 1 {
		t.Errorf("no submission shed under a %d-deep burst against queue depth 2", burst)
	}

	if _, body, _ := httpGet(t, base+"/metrics"); !regexp.MustCompile(`ingest_shed_total [1-9]`).MatchString(body) {
		t.Errorf("/metrics ingest_shed_total not positive after overload")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("run did not drain after cancellation:\n%s", buf.String())
	}
	// Zero loss: everything admitted was resolved (completed or failed).
	out := buf.String()
	m := regexp.MustCompile(`lifetime admitted (\d+), completed (\d+), failed (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no drain accounting in output:\n%s", out)
	}
	var admitted, completed, failed int
	fmt.Sscanf(m[1], "%d", &admitted)
	fmt.Sscanf(m[2], "%d", &completed)
	fmt.Sscanf(m[3], "%d", &failed)
	if admitted < 1 {
		t.Fatalf("nothing admitted: %v", m)
	}
	if completed+failed != admitted {
		t.Errorf("drain lost requests: admitted %d, resolved %d", admitted, completed+failed)
	}
}

func TestServeIngestFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-ingest", "ffthist", "../../specs/ffthist256.json"},
		strings.NewReader(""), io.Discard); err == nil {
		t.Error("-ingest without -serve accepted")
	}
	if err := run(context.Background(), []string{"-serve", ":0", "-ingest", "bogus",
		"../../specs/ffthist256.json"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("unknown -ingest app accepted")
	}
	if err := run(context.Background(), []string{"-serve", ":0", "-ingest", "ffthist", "-queue-depth", "0",
		"../../specs/ffthist256.json"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("-queue-depth 0 accepted")
	}
}

// TestServeContextCancelStopsServe checks the plain -serve path (no
// -serve-for) exits cleanly on context cancellation instead of blocking
// forever.
func TestServeContextCancelStopsServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-serve", "127.0.0.1:0",
			"-serve-n", "16",
			"-serve-speedup", "400",
			"../../specs/threestage.json",
		}, strings.NewReader(""), buf)
	}()
	waitFor(t, buf, regexp.MustCompile(`serving until killed`), done)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
}

// TestServeStartupErrorsDoNotLeakGoroutines drives every startup error
// path — bad kill spec (pre-listen), occupied address (listen failure),
// unknown ingest app — plus a complete short serve with and without
// -adapt, and checks the goroutine count returns to baseline: no orphaned
// listeners, monitors, dispatchers, submitters or adapt loops survive a
// failed or finished serve.
func TestServeStartupErrorsDoNotLeakGoroutines(t *testing.T) {
	// Occupy a port so -serve on it fails at listen time.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	busy := ln.Addr().String()

	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if err := run(context.Background(), []string{"-serve", "127.0.0.1:0", "-serve-kill", "bogus",
			"../../specs/threestage.json"}, strings.NewReader(""), io.Discard); err == nil {
			t.Fatal("malformed -serve-kill accepted")
		}
		if err := run(context.Background(), []string{"-serve", busy, "-serve-for", "1ms",
			"../../specs/threestage.json"}, strings.NewReader(""), io.Discard); err == nil {
			t.Fatal("occupied address accepted")
		}
		if err := run(context.Background(), []string{"-serve", busy, "-ingest", "ffthist",
			"../../specs/ffthist256.json"}, strings.NewReader(""), io.Discard); err == nil {
			t.Fatal("occupied address accepted for ingest")
		}
	}
	// A complete short serve must also return to baseline once closed,
	// with and without the adapt loop.
	if err := run(context.Background(), []string{"-serve", "127.0.0.1:0", "-serve-n", "8",
		"-serve-speedup", "400", "-serve-for", "1ms", "../../specs/threestage.json"},
		strings.NewReader(""), io.Discard); err != nil {
		t.Fatalf("short serve: %v", err)
	}
	if err := run(context.Background(), []string{"-serve", "127.0.0.1:0", "-serve-n", "8",
		"-serve-speedup", "400", "-serve-for", "1ms", "-adapt", "-adapt-interval", "10ms",
		"../../specs/threestage.json"}, strings.NewReader(""), io.Discard); err != nil {
		t.Fatalf("short adaptive serve: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

package ingest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pipemap/internal/fxrt"
)

// submit posts body to the handler and returns the status and the error
// reason, if any.
func submit(h http.Handler, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewBufferString(body)))
	var eb ErrorBody
	json.Unmarshal(rec.Body.Bytes(), &eb) // a success body has no error
	return rec.Code, eb.Error.Reason
}

// TestSubmitBudgetMS pins how budget_ms reaches the plane: a negative
// budget is refused, and one too large for a time.Duration saturates
// rather than wrapping to a sub-millisecond deadline that sheds a request
// queued behind a busy one.
func TestSubmitBudgetMS(t *testing.T) {
	gate := make(chan struct{})
	pl := &fxrt.Pipeline{Stages: []fxrt.Stage{{
		Name: "gated", Workers: 1, Replicas: 1,
		Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			<-gate
			return in, nil
		},
	}}}
	p, err := New(Config{Dispatchers: 1}, pl, fxrt.StreamOptions{Inbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	h := SubmitHandler(p, intCodec{})

	// 18446744073710 ms wraps to 448µs when multiplied out in nanoseconds.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i, body := range []string{`{"input":1}`, `{"input":2,"budget_ms":18446744073710}`} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _ = submit(h, body)
		}()
		// Wait for the first to occupy the pipeline, then the second to queue.
		for p.Stats().Admitted < int64(i+1) {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond) // queued well past 448µs
	close(gate)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Errorf("statuses %v, want both 200: a huge budget_ms must not expire", codes)
	}

	if code, reason := submit(h, `{"budget_ms":-1}`); code != http.StatusBadRequest || reason != "bad_request" {
		t.Errorf("negative budget: %d %q, want 400 bad_request", code, reason)
	}
}

// FuzzSubmitBody posts arbitrary bodies to the submit handler on a fresh
// plane: the handler never panics, answers 200, 400, 429 or 503, and after
// drain every admitted request is accounted for as completed, failed,
// canceled or head-dropped.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		``, `{}`, `{"input":5}`, `{"input":"x"}`, `{"input":1.5}`, `not json`,
		`{"tenant":"a","budget_ms":1,"input":3}`, `{"budget_ms":-1}`,
		`{"budget_ms":18446744073710}`, `{"budget_ms":9223372036855}`,
		`{"budget_ms":9223372036854}`, `{"budget_ms":1e30}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := New(Config{Dispatchers: 1}, incPipeline(1, 1), fxrt.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := SubmitHandler(p, intCodec{})
		var headDropped int64
		for i := 0; i < 2; i++ {
			before := p.Stats().Admitted
			code, reason := submit(h, string(body))
			switch code {
			case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Fatalf("body %q: status %d (%s)", body, code, reason)
			}
			if code == http.StatusServiceUnavailable && p.Stats().Admitted > before {
				headDropped++
			}
		}
		p.Drain()
		st := p.Stats()
		if st.Admitted != st.Completed+st.Failed+st.Canceled+headDropped {
			t.Fatalf("body %q: admitted %d != completed %d + failed %d + canceled %d + head-dropped %d",
				body, st.Admitted, st.Completed, st.Failed, st.Canceled, headDropped)
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// sample is one request as the load generator saw it, in nanoseconds
// since base: when it was due, when the generator released it, when a
// connection sent it, and when its response was fully read.
type sample struct {
	rid                   int
	due, disp, send, recv int64
	ok                    bool
	sojournNS             int64 // the plane's queue wait, from the response
}

// latency is the request's time from when it was due, which charges the
// wait a stall imposes on later requests to those requests.
func (s sample) latency() int64 { return s.recv - s.due }

// appInput is one pre-generated request input and its output check.
type appInput struct {
	fields string // the input object's fields, without braces
	check  func(result json.RawMessage) error
}

// httpClient is the load generator: one process, one keep-alive
// connection per worker.
type httpClient struct {
	url    string
	hc     []*http.Client
	inputs []appInput

	mu     sync.Mutex
	errs   []string
	badOut int64 // 200 responses whose output failed its check
}

func newHTTPClient(url string, inputs []appInput) *httpClient {
	c := &httpClient{url: url, inputs: inputs}
	for i := 0; i < conns(); i++ {
		c.hc = append(c.hc, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

// close drops the client's idle connections.
func (c *httpClient) close() {
	for _, hc := range c.hc {
		hc.CloseIdleConnections()
	}
}

func (c *httpClient) noteErr(err error, badOutput bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if badOutput {
		c.badOut++
	}
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err.Error())
	}
}

// submitResponse is the plane's success body.
type submitResponse struct {
	Result    json.RawMessage `json:"result"`
	SojournMS float64         `json:"sojourn_ms"`
}

// do sends request rid (input rid mod len(inputs)) and checks its output.
// It returns whether the request succeeded with a correct output, and the
// plane-reported queue wait.
func (c *httpClient) do(hc *http.Client, rid int) (bool, int64) {
	in := c.inputs[rid%len(c.inputs)]
	body := fmt.Appendf(nil, `{"input":{%s,"rid":%d}}`, in.fields, rid)
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		c.noteErr(err, false)
		return false, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ridHeader, strconv.Itoa(rid))
	resp, err := hc.Do(req)
	if err != nil {
		c.noteErr(err, false)
		return false, 0
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.noteErr(err, false)
		return false, 0
	}
	if resp.StatusCode != http.StatusOK {
		c.noteErr(fmt.Errorf("status %d: %.200s", resp.StatusCode, b), false)
		return false, 0
	}
	var sr submitResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		c.noteErr(fmt.Errorf("response body: %w", err), true)
		return false, 0
	}
	if err := in.check(sr.Result); err != nil {
		c.noteErr(fmt.Errorf("request %d: %w", rid, err), true)
		return false, 0
	}
	return true, int64(sr.SojournMS * 1e6)
}

// openLoop offers n requests at a fixed rate regardless of how fast
// responses come back (independent users), with request IDs from ridBase.
// A request waits for a free connection if every one is busy; that wait
// counts in its latency, which runs from its due time.
func (c *httpClient) openLoop(rate float64, n, ridBase int) []sample {
	samples := make([]sample, n)
	jobs := make(chan int, n) // one slot per request: the dispatcher never blocks
	var wg sync.WaitGroup
	for _, hc := range c.hc {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			for i := range jobs {
				s := &samples[i]
				s.send = now()
				s.ok, s.sojournNS = c.do(hc, s.rid)
				s.recv = now()
			}
		}(hc)
	}
	dispatch(rate, samples, ridBase, func(i int) { jobs <- i })
	close(jobs)
	wg.Wait()
	return samples
}

// dispatch releases samples at their due times (rate per second, starting
// shortly from now), sleeping between releases; a late wake-up releases
// every overdue request at once.
func dispatch(rate float64, samples []sample, ridBase int, release func(i int)) {
	start := now() + int64(time.Millisecond)
	interval := 1e9 / rate
	for i := range samples {
		due := start + int64(float64(i)*interval)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		samples[i].rid = ridBase + i
		samples[i].due = due
		samples[i].disp = now()
		release(i)
	}
}

// closedLoop runs every connection back to back (each sends its next
// request when the previous one completes) for d, and returns the
// successful responses per second in each rateWindow, and the counts.
func (c *httpClient) closedLoop(d time.Duration, ridBase int) (rates []float64, ok, failed int64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var done []int64
	start := now()
	stop := start + int64(d)
	for w, hc := range c.hc {
		wg.Add(1)
		go func(w int, hc *http.Client) {
			defer wg.Done()
			var mine []int64
			var nFail int64
			for rid := ridBase + w; now() < stop; rid += len(c.hc) {
				if good, _ := c.do(hc, rid); good {
					mine = append(mine, now())
				} else {
					nFail++
				}
			}
			mu.Lock()
			done = append(done, mine...)
			failed += nFail
			mu.Unlock()
		}(w, hc)
	}
	wg.Wait()
	return windowRates(done, start, stop, int64(rateWindow)), int64(len(done)), failed
}

// rateWindow is the window over which closed-loop rates are counted: short
// enough that many windows fall within one of the host's fast or slow
// states.
const rateWindow = 100 * time.Millisecond

// selfTest drives the generator at rate against a zero-work handler for d,
// showing the rate can be offered with bounded lateness on this host, so
// the serve numbers measure the program rather than the generator.
func selfTest(rate float64, d time.Duration) (achieved, lateP99us, e2eP99us float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, fmt.Errorf("self-test listener: %w", err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"app":"zero","result":{},"sojourn_ms":0}`))
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	inputs := []appInput{{fields: `"seed":0`, check: func(json.RawMessage) error { return nil }}}
	c := newHTTPClient("http://"+ln.Addr().String()+"/", inputs)
	defer c.close()
	n := int(rate * d.Seconds())
	samples := c.openLoop(rate, n, 0)
	var late, e2e []float64
	for _, s := range samples {
		if !s.ok {
			return 0, 0, 0, fmt.Errorf("self-test request failed: %v", c.errs)
		}
		late = append(late, us(s.disp-s.due))
		e2e = append(e2e, us(s.latency()))
	}
	span := samples[n-1].disp - samples[0].due
	return float64(n-1) / (float64(span) / 1e9), pct(late, 0.99), pct(e2e, 0.99), nil
}

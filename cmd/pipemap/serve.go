package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/adapt"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// serveConfig carries the -serve* and -adapt* flags.
type serveConfig struct {
	addr     string
	n        int
	speedup  float64
	serveFor time.Duration
	kill     string

	adapt          bool
	adaptInterval  time.Duration
	adaptThreshold float64

	ingestApp    string
	queueDepth   int
	shedDeadline time.Duration
	tenantRate   float64
	ingestSize   int
	dispatchers  int

	traceSample     float64
	traceSpans      string
	flightSize      int
	sloP99          time.Duration
	sloAvailability float64
}

// serveWait blocks until the configured serving window elapses or the
// process is signalled.
func serveWait(ctx context.Context, stdout io.Writer, serveFor time.Duration) {
	if serveFor > 0 {
		select {
		case <-time.After(serveFor):
		case <-ctx.Done():
		}
		return
	}
	fmt.Fprintln(stdout, "serving until killed (ctrl-c or SIGTERM to exit)")
	<-ctx.Done()
}

// modelCodec carries the model app's data sets over POST /v1/submit: the
// emulated stages pass an int through, and an empty input is data set 0.
type modelCodec struct{}

func (modelCodec) App() string { return "model" }

func (modelCodec) Decode(in json.RawMessage) (fxrt.DataSet, error) {
	if len(in) == 0 {
		return 0, nil
	}
	var v int
	if err := json.Unmarshal(in, &v); err != nil {
		return nil, fmt.Errorf("model input: want an integer: %w", err)
	}
	return v, nil
}

func (modelCodec) Encode(out fxrt.DataSet) (any, error) { return out, nil }

// feedStats summarizes one in-process feed of the plane.
type feedStats struct {
	// completed and failed count the data sets that came back with and
	// without a result (a shed counts as failed).
	completed, failed int
	// throughput is measured as fxrt's batch runs measure it
	// (fxrt.WindowThroughput): the least-squares slope of the completions
	// after the first n/5.
	throughput float64
}

// feed submits data sets 0..n-1 through the plane from workers concurrent
// submitters and returns once every submission has its outcome, or ctx
// ends.
func feed(ctx context.Context, plane *ingest.Plane, n, workers int) feedStats {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		st    feedStats
		done  = make([]time.Duration, 0, n) // completion times since start
		start = time.Now()
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out, err := plane.Submit(ctx, "", i, 0)
				mu.Lock()
				if err != nil || out.Err != nil {
					st.failed++
				} else {
					st.completed++
					// Read under the lock, so done stays ascending.
					done = append(done, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.throughput = fxrt.WindowThroughput(done, n/5)
	return st
}

// reportRun prints the model app's run summary: the fed throughput beside
// the model's prediction, the serving generation's health, and with -adapt
// the controller's generations.
func reportRun(stdout io.Writer, st feedStats, m model.Mapping, speedup float64, h live.Health, ctrl *adapt.Controller) {
	fmt.Fprintf(stdout, "run complete: %d data sets, %.4f data sets/s observed (model predicts %.4f at %gx speedup)\n",
		st.completed, st.throughput, m.Throughput()*speedup, speedup)
	fmt.Fprintf(stdout, "health: %s", h.Status)
	if h.Reason != "" {
		fmt.Fprintf(stdout, " (%s)", h.Reason)
	}
	fmt.Fprintf(stdout, "; bottleneck stage %d (%s), predicted %d\n",
		h.BottleneckStage, h.Stages[h.BottleneckStage].Name, h.PredictedBottleneck)
	if st.failed+int(h.Retries+h.Drops+h.Deaths) > 0 {
		fmt.Fprintf(stdout, "faults: %d failed or shed, %d retried, %d dropped, %d instance death(s)\n",
			st.failed, h.Retries, h.Drops, h.Deaths)
	}
	if ctrl != nil {
		cs := ctrl.Status()
		fmt.Fprintf(stdout, "adapt: %d generation(s); %d migration(s), %d rollback(s), %d processor(s) lost; serving %s\n",
			cs.Generation+1, cs.Migrations, cs.Rollbacks, cs.LostProcs, cs.Mapping)
	}
}

// resolveKill parses -serve-kill: "auto" picks instance 0 of the first
// replicated stage; otherwise "stage:instance".
func resolveKill(spec string, m model.Mapping) (int, int, error) {
	if spec == "auto" {
		for i, mod := range m.Modules {
			if mod.Replicas > 1 {
				return i, 0, nil
			}
		}
		return 0, 0, fmt.Errorf("-serve-kill auto: no replicated stage to kill (killing the only instance would only drop data sets)")
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-serve-kill %q is not stage:instance or auto", spec)
	}
	stage, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("-serve-kill stage %q: %w", parts[0], err)
	}
	inst, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("-serve-kill instance %q: %w", parts[1], err)
	}
	if stage < 0 || stage >= len(m.Modules) {
		return 0, 0, fmt.Errorf("-serve-kill stage %d outside the %d-module mapping", stage, len(m.Modules))
	}
	if inst < 0 || inst >= m.Modules[stage].Replicas {
		return 0, 0, fmt.Errorf("-serve-kill instance %d outside stage %d's %d replicas",
			inst, stage, m.Modules[stage].Replicas)
	}
	return stage, inst, nil
}

package fxrt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pipemap/internal/obs/live"
)

// DataSet is one unit of streaming data flowing through a pipeline.
type DataSet interface{}

// StageCtx is passed to a stage's work function.
type StageCtx struct {
	// Group is the instance's worker pool.
	Group *Group
	// Instance is the replica index of this stage instance.
	Instance int
	// Rec accumulates named operation timings for profiling.
	Rec *Recorder
	// Deadline is the bound on one attempt of this stage (Stage.Deadline
	// or Pipeline.StageDeadline); zero means every attempt runs to
	// completion. An attempt that overruns its deadline is abandoned but
	// keeps running detached, so while Deadline is set a stage must not
	// let a buffer it touches be recycled: the detached attempt may still
	// use it.
	Deadline time.Duration
}

// Stage is one module of a pipeline: a work function running on Workers
// workers, replicated Replicas times (instances process alternate data
// sets round-robin, per the paper's replication model).
type Stage struct {
	Name     string
	Workers  int
	Replicas int
	// Run processes one data set and returns the data set for the next
	// stage. It must be safe for concurrent invocation across instances
	// (each instance has its own Group; shared inputs must be treated as
	// read-only).
	Run func(ctx *StageCtx, in DataSet) (DataSet, error)
	// Deadline bounds one attempt of this stage, overriding
	// Pipeline.StageDeadline; zero inherits the pipeline-wide value.
	Deadline time.Duration
}

// Stats reports a pipeline execution.
type Stats struct {
	// DataSets is the number of data sets processed.
	DataSets int
	// Elapsed is the wall-clock duration from first input to last output.
	Elapsed time.Duration
	// Throughput is data sets per second over the post-warmup window: the
	// least-squares slope of completion count over time (see
	// WindowThroughput).
	Throughput float64
	// Latency is the mean data set traversal time.
	Latency time.Duration
	// Ops maps operation names (as recorded by stages) to mean durations
	// in seconds.
	Ops map[string]float64
	// Retried is the total number of retry attempts across all stages.
	Retried int
	// Dropped is the number of data sets abandoned after exhausting their
	// attempts at some stage; dropped data sets do not reach the sink.
	Dropped int
	// Timeouts is the number of attempts cut off by a stage deadline.
	Timeouts int
	// Dead is the number of stage instances declared dead and removed
	// from rotation during the run.
	Dead int
}

// opAgg is the running sum behind one operation's mean.
type opAgg struct {
	sum float64
	n   int
}

// Recorder accumulates named operation durations across stage instances.
type Recorder struct {
	mu  sync.Mutex
	ops map[string]*opAgg
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ops: map[string]*opAgg{}}
}

// Observe adds one sample of the named operation.
func (r *Recorder) Observe(name string, seconds float64) {
	r.mu.Lock()
	a := r.ops[name]
	if a == nil {
		a = &opAgg{}
		r.ops[name] = a
	}
	a.sum += seconds
	a.n++
	r.mu.Unlock()
}

// Time runs f and records its duration under name, or under name+"/error"
// when f fails, so the cost of failed (retried) attempts stays visible in
// metrics instead of silently inflating the success samples.
func (r *Recorder) Time(name string, f func() error) error {
	start := time.Now()
	err := f()
	if err != nil {
		name += "/error"
	}
	r.Observe(name, time.Since(start).Seconds())
	return err
}

// Means returns the mean duration of every recorded operation.
func (r *Recorder) Means() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.ops))
	for k, a := range r.ops {
		out[k] = a.sum / float64(a.n)
	}
	return out
}

// Pipeline is a chain of stages executing a stream of data sets. Every
// execution runs on a Stream: a batch Run or RunWithEdges pushes its data
// sets through one and collects the results.
//
// The fault-tolerance fields (Retry, StageDeadline, DeadAfter, Faults, or a
// per-stage Deadline) shape failure handling: failed attempts are retried
// with capped exponential backoff, hung attempts are cut off by deadlines,
// data sets that exhaust their attempts are dropped and counted (never
// aborting the stream), and repeatedly failing instances are declared dead
// and removed from the round-robin while the surviving replicas keep
// serving at reduced throughput. Without any of them, a batch run fails on
// its first failed data set.
type Pipeline struct {
	Stages []Stage
	// Retry is the per-data-set retry policy applied at every stage.
	Retry RetryPolicy
	// StageDeadline bounds one attempt of any stage; zero disables
	// deadlines. A stage's own Deadline overrides it.
	StageDeadline time.Duration
	// DeadAfter declares an instance dead after this many consecutive
	// failed attempts, removing it from rotation (its in-flight data set
	// is requeued to a surviving replica); zero never declares death. The
	// last live instance of a stage is never removed.
	DeadAfter int
	// Faults injects deterministic failures for testing (see Fault).
	Faults []Fault
	// Monitor receives live per-attempt observations (completions with
	// latency, retries, timeouts, drops, instance deaths) from every run
	// and stream, feeding the health model served by obs/live. nil
	// disables live monitoring with no overhead.
	Monitor *live.Monitor
}

// validate checks the pipeline structure shared by Stream, Run and
// RunWithEdges. Edges, when given, need one entry per stage boundary;
// withEdges requires them.
func (p *Pipeline) validate(edges []Edge, withEdges bool) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("fxrt: pipeline has no stages")
	}
	if (withEdges || edges != nil) && len(edges) != len(p.Stages)-1 {
		return fmt.Errorf("fxrt: %d edges for %d stages (want %d)",
			len(edges), len(p.Stages), len(p.Stages)-1)
	}
	for i, s := range p.Stages {
		if s.Workers < 1 || s.Replicas < 1 {
			return fmt.Errorf("fxrt: stage %d (%s) has workers=%d replicas=%d",
				i, s.Name, s.Workers, s.Replicas)
		}
		if s.Run == nil {
			return fmt.Errorf("fxrt: stage %d (%s) has no Run", i, s.Name)
		}
	}
	return nil
}

// Run streams n data sets produced by source through the pipeline and
// returns execution statistics. warmup data sets are excluded from the
// throughput window (pass 0 for n/5).
func (p *Pipeline) Run(source func(i int) DataSet, n, warmup int) (Stats, error) {
	return p.runBatch(source, n, warmup, nil, false)
}

// runBatch is the batch driver behind Run and RunWithEdges: it pushes the
// n source data sets through a fresh Stream, collects their results, and
// closes the stream. Requeues and retries reorder the stream, so the
// warmup window is delimited by completion order, not by stream index.
func (p *Pipeline) runBatch(source func(i int) DataSet, n, warmup int, edges []Edge, withEdges bool) (Stats, error) {
	if err := p.validate(edges, withEdges); err != nil {
		return Stats{}, err
	}
	if n <= 0 {
		return Stats{}, fmt.Errorf("fxrt: need at least one data set")
	}
	if warmup <= 0 {
		warmup = n / 5
	}
	if warmup >= n {
		warmup = n - 1
	}
	s, err := p.Stream(StreamOptions{Edges: edges})
	if err != nil {
		return Stats{}, err
	}
	// One shared result channel delivers the results in completion order.
	res := make(chan StreamResult, n)
	pushed := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(pushed)
		for i := 0; i < n; i++ {
			// Cannot fail: the stream closes only after every result is in.
			s.push(context.Background(), source(i), nil, res)
		}
	}()
	var (
		firstErr error
		latSum   time.Duration
		done     = make([]time.Duration, 0, n) // completion times since start
	)
	for got := 0; got < n; got++ {
		r := <-res
		if r.Err != nil {
			if firstErr == nil {
				firstErr = r.Err
			}
			continue
		}
		latSum += r.Latency
		done = append(done, time.Since(start))
	}
	<-pushed
	stats := s.Close()
	if firstErr != nil && !p.faultTolerant() {
		return Stats{}, firstErr
	}
	stats.Elapsed, stats.Throughput = 0, 0
	if completed := len(done); completed > 0 {
		stats.Elapsed = done[completed-1]
		stats.Latency = latSum / time.Duration(completed)
	}
	stats.Throughput = WindowThroughput(done, warmup)
	return stats, nil
}

// WindowThroughput is the steady-state rate of a run whose data sets
// completed at the times in done, ascending and measured from any fixed
// origin: the least-squares slope of completion count over time, fitted
// to the completions after the first warmup. A replicated last stage
// completes in bursts of its replica count; counting the completions
// after the window's first over the time since that one would count a
// whole burst without its period whenever the window opens on a burst's
// first completion, and the fitted slope does not depend on where the
// window opens. It is 0 when fewer than two completions remain or they
// share one instant. Pipeline.Run measures its Throughput with it, and so
// does any caller that streams its own data sets.
func WindowThroughput(done []time.Duration, warmup int) float64 {
	if warmup < 0 || len(done)-warmup < 2 {
		return 0
	}
	w := done[warmup:]
	n := float64(len(w))
	mt, mi := 0.0, (n-1)/2
	for _, d := range w {
		mt += d.Seconds()
	}
	mt /= n
	var sxy, sxx float64
	for i, d := range w {
		dt := d.Seconds() - mt
		sxy += dt * (float64(i) - mi)
		sxx += dt * dt
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

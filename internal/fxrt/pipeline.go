package fxrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/obs"
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
	// Deadline bounds one attempt of this stage in fault-tolerant runs,
	// overriding Pipeline.StageDeadline; zero inherits the pipeline-wide
	// value.
	Deadline time.Duration
}

// Stats reports a pipeline execution.
type Stats struct {
	// DataSets is the number of data sets processed.
	DataSets int
	// Elapsed is the wall-clock duration from first input to last output.
	Elapsed time.Duration
	// Throughput is data sets per second over the post-warmup window.
	Throughput float64
	// Latency is the mean data set traversal time.
	Latency time.Duration
	// Ops maps operation names (as recorded by stages) to mean durations
	// in seconds.
	Ops map[string]float64
	// OpStats maps operation names to mean/min/max summaries; a Max far
	// above the Mean flags a straggling or slowed instance.
	OpStats map[string]OpStat
	// Retried is the total number of retry attempts across all stages
	// (fault-tolerant runs only).
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

// OpStat summarizes the samples of one recorded operation.
type OpStat struct {
	Mean, Min, Max float64
	Count          int
}

// opAgg is the running aggregate behind one OpStat.
type opAgg struct {
	sum, min, max float64
	n             int
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
		a = &opAgg{min: seconds, max: seconds}
		r.ops[name] = a
	}
	a.sum += seconds
	a.n++
	if seconds < a.min {
		a.min = seconds
	}
	if seconds > a.max {
		a.max = seconds
	}
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

// Summary returns mean, min and max of every recorded operation.
func (r *Recorder) Summary() map[string]OpStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]OpStat, len(r.ops))
	for k, a := range r.ops {
		out[k] = OpStat{Mean: a.sum / float64(a.n), Min: a.min, Max: a.max, Count: a.n}
	}
	return out
}

// Pipeline is a chain of stages executing a stream of data sets.
//
// The zero-value configuration runs the strict rendezvous executor that
// models the paper's execution semantics exactly and aborts on the first
// stage error. Setting any of the fault-tolerance fields (Retry,
// StageDeadline, DeadAfter, Faults, or a per-stage Deadline) routes
// Run/RunWithEdges through the fault-tolerant executor instead: failed
// attempts are retried with capped exponential backoff, hung attempts are
// cut off by deadlines, data sets that exhaust their attempts are dropped
// and counted (never aborting the stream), and repeatedly failing
// instances are declared dead and removed from the round-robin while the
// surviving replicas keep serving at reduced throughput.
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
	// Obs receives one trace span per data set × stage × attempt in
	// fault-tolerant runs, plus instant events for instance deaths and
	// dropped data sets; nil disables tracing with no overhead.
	Obs *obs.Tracer
	// Monitor receives live per-attempt observations (completions with
	// latency, retries, timeouts, drops, instance deaths) in
	// fault-tolerant runs, feeding the health model served by obs/live.
	// nil disables live monitoring with no overhead. The strict rendezvous
	// executor does not report to it; attach fault-tolerance options (even
	// just a RetryPolicy) to serve live traffic.
	Monitor *live.Monitor
}

// envelope carries a data set with its stream index.
type envelope struct {
	idx int
	ds  DataSet
	t0  time.Time
}

// validate checks the pipeline structure and run parameters shared by Run
// and RunWithEdges, returning the effective warmup count. edges is only
// inspected when withEdges is set.
func (p *Pipeline) validate(n, warmup int, edges []Edge, withEdges bool) (int, error) {
	if len(p.Stages) == 0 {
		return 0, fmt.Errorf("fxrt: pipeline has no stages")
	}
	if withEdges && len(edges) != len(p.Stages)-1 {
		return 0, fmt.Errorf("fxrt: %d edges for %d stages (want %d)",
			len(edges), len(p.Stages), len(p.Stages)-1)
	}
	if n <= 0 {
		return 0, fmt.Errorf("fxrt: need at least one data set")
	}
	if warmup <= 0 {
		warmup = n / 5
	}
	if warmup >= n {
		warmup = n - 1
	}
	for i, s := range p.Stages {
		if s.Workers < 1 || s.Replicas < 1 {
			return 0, fmt.Errorf("fxrt: stage %d (%s) has workers=%d replicas=%d",
				i, s.Name, s.Workers, s.Replicas)
		}
		if s.Run == nil {
			return 0, fmt.Errorf("fxrt: stage %d (%s) has no Run", i, s.Name)
		}
	}
	return warmup, nil
}

// Run streams n data sets produced by source through the pipeline and
// returns execution statistics. warmup data sets are excluded from the
// throughput window (pass 0 for n/5).
func (p *Pipeline) Run(source func(i int) DataSet, n, warmup int) (Stats, error) {
	warmup, err := p.validate(n, warmup, nil, false)
	if err != nil {
		return Stats{}, err
	}
	if p.faultTolerant() {
		return p.runFT(source, n, warmup, nil)
	}

	rec := NewRecorder()
	l := len(p.Stages)
	// Rendezvous channels: ch[i][a][b] carries data sets from instance a
	// of stage i-1 to instance b of stage i. ch[0][0][b] is the source
	// feed. Unbuffered channels model the blocking transfer of the
	// execution model.
	ch := make([][][]chan envelope, l+1)
	srcReps := 1
	for i := 0; i <= l; i++ {
		var from, to int
		switch i {
		case 0:
			from, to = srcReps, p.Stages[0].Replicas
		case l:
			from, to = p.Stages[l-1].Replicas, 1
		default:
			from, to = p.Stages[i-1].Replicas, p.Stages[i].Replicas
		}
		ch[i] = make([][]chan envelope, from)
		for a := 0; a < from; a++ {
			ch[i][a] = make([]chan envelope, to)
			for b := 0; b < to; b++ {
				ch[i][a][b] = make(chan envelope)
			}
		}
	}

	var (
		errOnce sync.Once
		runErr  error
		failed  atomic.Bool
	)
	setErr := func(err error) {
		if err != nil {
			failed.Store(true)
			errOnce.Do(func() { runErr = err })
		}
	}

	var wg sync.WaitGroup
	// Stage instances.
	for i := 0; i < l; i++ {
		st := p.Stages[i]
		for b := 0; b < st.Replicas; b++ {
			wg.Add(1)
			go func(i, b int, st Stage) {
				defer wg.Done()
				g, err := NewGroup(st.Workers)
				if err != nil {
					setErr(err)
					// Must still drain the schedule to unblock peers.
					g = nil
				}
				if g != nil {
					defer g.Close()
				}
				ctx := &StageCtx{Group: g, Instance: b, Rec: rec}
				prevReps := srcReps
				if i > 0 {
					prevReps = p.Stages[i-1].Replicas
				}
				nextReps := 1
				if i < l-1 {
					nextReps = p.Stages[i+1].Replicas
				}
				for idx := b; idx < n; idx += st.Replicas {
					env := <-ch[i][idx%prevReps][b]
					if g != nil && !failed.Load() {
						out, err := st.Run(ctx, env.ds)
						if err != nil {
							setErr(fmt.Errorf("fxrt: stage %s instance %d data set %d: %w",
								st.Name, b, idx, err))
						} else {
							env.ds = out
						}
					}
					ch[i+1][b][idx%nextReps] <- env
				}
			}(i, b, st)
		}
	}

	// Source.
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r0 := p.Stages[0].Replicas
		for idx := 0; idx < n; idx++ {
			ch[0][0][idx%r0] <- envelope{idx: idx, ds: source(idx), t0: time.Now()}
		}
	}()

	// Sink: consume outputs in stream order from the last stage.
	lastReps := p.Stages[l-1].Replicas
	outTimes := make([]time.Time, n)
	var latSum time.Duration
	for idx := 0; idx < n; idx++ {
		env := <-ch[l][idx%lastReps][0]
		now := time.Now()
		outTimes[env.idx] = now
		latSum += now.Sub(env.t0)
	}
	wg.Wait()
	if runErr != nil {
		return Stats{}, runErr
	}

	stats := Stats{
		DataSets: n,
		Elapsed:  outTimes[n-1].Sub(start),
		Latency:  latSum / time.Duration(n),
		Ops:      rec.Means(),
		OpStats:  rec.Summary(),
	}
	window := outTimes[n-1].Sub(outTimes[warmup])
	if window > 0 {
		stats.Throughput = float64(n-1-warmup) / window.Seconds()
	}
	return stats, nil
}

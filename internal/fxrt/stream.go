package fxrt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/obs"
)

// ErrStreamClosed is returned by Push after Close has begun: the stream no
// longer admits new data sets (it is draining or drained).
var ErrStreamClosed = errors.New("fxrt: stream closed")

// StreamResult is the outcome of one pushed data set: the transformed data
// set from the sink, or the error that dropped it (stage failure after
// exhausting its attempts, or a deadline). Latency is push-to-sink time
// either way.
type StreamResult struct {
	DS      DataSet
	Err     error
	Latency time.Duration
}

// StreamOptions configures a streaming execution.
type StreamOptions struct {
	// Inbox bounds every stage's inbox (and the sink's). A full inbox makes
	// the upstream forward block — backpressure propagates toward Push
	// instead of buffering without bound. <= 0 derives a per-stage default
	// of max(4, 2×replicas).
	Inbox int
	// Edges are the inter-module transfers, as in RunWithEdges: edge i-1
	// executes on the receiving instance as part of stage i's attempt and
	// is retried with it. nil runs without transfers.
	Edges []Edge
}

// sEnvelope carries one pushed data set through the streaming executor.
type sEnvelope struct {
	idx      int
	ds       DataSet
	t0       time.Time
	attempts int
	dropped  bool
	err      error
	res      chan StreamResult
	// rt is the request trace accompanying a traced push (nil for the
	// untraced fast path); every stage attempt records a span on it.
	rt *obs.ReqTrace
}

// Stream is a long-running execution of a pipeline: data sets are pushed
// one at a time and each push returns a channel that delivers that data
// set's result. Unlike Run, which streams a fixed batch and reports
// aggregate Stats, a Stream serves an ingestion data plane: inboxes are
// bounded (a full pipeline pushes back rather than buffering), every data
// set's outcome is delivered to its submitter, and Close drains in-flight
// work to zero before tearing the instances down.
//
// The executor semantics are those of the fault-tolerant executor: failed
// attempts retry with capped exponential backoff, hung attempts are cut
// off by stage deadlines, data sets that exhaust their attempts resolve
// with an error (never aborting the stream), and repeatedly failing
// instances die and leave the rotation while survivors keep serving.
type Stream struct {
	p     *Pipeline
	edges []Edge
	rec   *Recorder
	// recycle is set when no stage has a deadline, so edge transfer
	// sources may be released (see Edge.Release).
	recycle bool

	inbox   []chan sEnvelope
	quit    chan struct{}
	release chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	inflight int
	drained  chan struct{}

	start time.Time
	seq   atomic.Int64
	live  []atomic.Int32

	completed atomic.Int64
	retried   atomic.Int64
	droppedN  atomic.Int64
	timeouts  atomic.Int64
	deaths    atomic.Int64
}

// Stream starts a streaming execution of the pipeline and returns its
// handle. The pipeline's Monitor (if any) is started and observes every
// attempt exactly as in fault-tolerant batch runs.
func (p *Pipeline) Stream(opts StreamOptions) (*Stream, error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("fxrt: pipeline has no stages")
	}
	l := len(p.Stages)
	if opts.Edges != nil && len(opts.Edges) != l-1 {
		return nil, fmt.Errorf("fxrt: %d edges for %d stages (want %d)",
			len(opts.Edges), l, l-1)
	}
	for i, s := range p.Stages {
		if s.Workers < 1 || s.Replicas < 1 {
			return nil, fmt.Errorf("fxrt: stage %d (%s) has workers=%d replicas=%d",
				i, s.Name, s.Workers, s.Replicas)
		}
		if s.Run == nil {
			return nil, fmt.Errorf("fxrt: stage %d (%s) has no Run", i, s.Name)
		}
	}
	s := &Stream{
		p:       p,
		edges:   opts.Edges,
		rec:     NewRecorder(),
		recycle: true,
		inbox:   make([]chan sEnvelope, l+1),
		quit:    make(chan struct{}),
		release: make(chan struct{}),
		drained: make(chan struct{}),
		start:   time.Now(),
		live:    make([]atomic.Int32, l),
	}
	for i := range p.Stages {
		if p.deadlineFor(i) > 0 {
			s.recycle = false
		}
	}
	for i := 0; i <= l; i++ {
		capacity := opts.Inbox
		if capacity <= 0 {
			reps := 1
			if i < l {
				reps = p.Stages[i].Replicas
			}
			capacity = 2 * reps
			if capacity < 4 {
				capacity = 4
			}
		}
		s.inbox[i] = make(chan sEnvelope, capacity)
	}
	for i := 0; i < l; i++ {
		s.live[i].Store(int32(p.Stages[i].Replicas))
		for b := 0; b < p.Stages[i].Replicas; b++ {
			s.wg.Add(1)
			go func(i, b int) {
				defer s.wg.Done()
				s.instance(i, b)
			}(i, b)
		}
	}
	s.wg.Add(1)
	go s.sink()
	p.Monitor.Start()
	return s, nil
}

// Push submits one data set and returns the channel (buffered, never
// blocking the sink) on which its result will be delivered. Push blocks
// while the first stage's inbox is full — that is the backpressure signal
// an admission queue converts into shedding — until ctx is done. A nil ctx
// never expires.
func (s *Stream) Push(ctx context.Context, ds DataSet) (<-chan StreamResult, error) {
	return s.PushTraced(ctx, ds, nil)
}

// PushTraced is Push with a request trace attached: every stage attempt
// (including retries and drops) records a span on rt. A nil rt is exactly
// Push.
func (s *Stream) PushTraced(ctx context.Context, ds DataSet, rt *obs.ReqTrace) (<-chan StreamResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStreamClosed
	}
	s.inflight++
	s.mu.Unlock()
	env := sEnvelope{
		idx: int(s.seq.Add(1) - 1),
		ds:  ds,
		t0:  time.Now(),
		res: make(chan StreamResult, 1),
		rt:  rt,
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.inbox[0] <- env:
		return env.res, nil
	case <-done:
		s.doneOne()
		return nil, ctx.Err()
	}
}

// InFlight reports the number of pushed data sets not yet resolved.
func (s *Stream) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Closed reports whether Close has begun (the stream rejects pushes).
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// doneOne retires one in-flight data set and completes the drain when the
// stream is closed and empty.
func (s *Stream) doneOne() {
	s.mu.Lock()
	s.inflight--
	if s.closed && s.inflight == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

// Close stops admitting, waits for every in-flight data set to resolve
// (each submitter receives its result — graceful drain loses nothing),
// then stops the stage instances and returns the stream's cumulative
// statistics. Close is idempotent and safe to call concurrently.
func (s *Stream) Close() Stats {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.inflight == 0 {
			close(s.drained)
		}
	}
	s.mu.Unlock()
	<-s.drained
	s.stop.Do(func() {
		close(s.quit)
		close(s.release)
	})
	s.wg.Wait()
	s.p.Monitor.Finish()
	return s.Stats()
}

// Stats snapshots the stream's cumulative statistics. DataSets counts
// resolved data sets (completed plus dropped); windowed rates live on the
// pipeline's Monitor.
func (s *Stream) Stats() Stats {
	completed := s.completed.Load()
	dropped := s.droppedN.Load()
	st := Stats{
		DataSets: int(completed + dropped),
		Elapsed:  time.Since(s.start),
		Ops:      s.rec.Means(),
		OpStats:  s.rec.Summary(),
		Retried:  int(s.retried.Load()),
		Dropped:  int(dropped),
		Timeouts: int(s.timeouts.Load()),
		Dead:     int(s.deaths.Load()),
	}
	if st.Elapsed > 0 {
		st.Throughput = float64(completed) / st.Elapsed.Seconds()
	}
	return st
}

// instance is the body of one stage replica.
func (s *Stream) instance(i, b int) {
	st := s.p.Stages[i]
	g, _ := NewGroup(st.Workers) // Workers >= 1 was validated in Stream
	var attempts sync.WaitGroup
	if g != nil {
		// Abandoned (timed-out) attempts may still be running on the group;
		// close it only after they finish, without blocking shutdown.
		defer func() {
			go func() {
				attempts.Wait()
				g.Close()
			}()
		}()
	}
	deadline := s.p.deadlineFor(i)
	ctx := &StageCtx{Group: g, Instance: b, Rec: s.rec, Deadline: deadline}
	maxAttempts := s.p.Retry.MaxRetries + 1
	consecFail := 0
	for {
		select {
		case env := <-s.inbox[i]:
			if s.process(ctx, i, b, st, deadline, &attempts, maxAttempts, &consecFail, env) {
				return // instance died
			}
		case <-s.quit:
			return
		}
	}
}

// process runs one envelope through stage i on instance b, retrying per
// the pipeline policy. It reports true when the instance declared itself
// dead (the envelope was requeued to a surviving replica).
func (s *Stream) process(ctx *StageCtx, i, b int, st Stage, deadline time.Duration,
	attempts *sync.WaitGroup, maxAttempts int, consecFail *int, env sEnvelope) bool {
	if env.dropped {
		s.forward(i, env)
		return false
	}
	mon := s.p.Monitor
	for {
		t0 := time.Now()
		out, err, timedOut := attemptOnce(s.p, s.rec, s.edges, s.release,
			ctx, i, b, st, deadline, attempts, env.ds, env.idx, env.attempts)
		if err == nil {
			env.rt.StageSpan(st.Name, i, b, env.attempts, "ok", t0, time.Since(t0))
			mon.StageDone(i, time.Since(t0).Seconds())
			if s.recycle && i > 0 && s.edges != nil {
				if e := s.edges[i-1]; e.Transfer != nil && e.Release != nil {
					e.Release(env.ds)
				}
			}
			env.ds = out
			env.attempts = 0
			*consecFail = 0
			s.forward(i, env)
			return false
		}
		outcome := "error"
		if timedOut {
			outcome = "timeout"
		}
		env.rt.StageSpan(st.Name, i, b, env.attempts, outcome, t0, time.Since(t0))
		env.attempts++
		env.err = err
		*consecFail++
		if timedOut {
			s.timeouts.Add(1)
			mon.StageTimeout(i, env.idx)
		}
		if s.p.DeadAfter > 0 && *consecFail >= s.p.DeadAfter {
			// Die only if another live instance remains to serve the
			// stream; the last instance soldiers on.
			if s.live[i].Add(-1) >= 1 {
				s.deaths.Add(1)
				mon.InstanceDeath(i, env.idx)
				env.rt.Instant("stage", st.Name, "instance death; requeued")
				env.attempts = 0 // fresh budget on a surviving instance
				s.requeue(i, env)
				return true
			}
			s.live[i].Add(1)
		}
		if env.attempts >= maxAttempts {
			s.drop(i, &env)
			s.forward(i, env)
			return false
		}
		s.retried.Add(1)
		mon.StageRetry(i, env.idx)
		if d := s.p.Retry.BackoffFor(env.attempts); d > 0 {
			time.Sleep(d)
		}
	}
}

// drop tombstones env after stage i exhausted its attempts; the sink
// resolves it with the last attempt's error.
func (s *Stream) drop(i int, env *sEnvelope) {
	env.dropped = true
	if env.err == nil {
		env.err = fmt.Errorf("fxrt: data set %d dropped at stage %s", env.idx, s.p.Stages[i].Name)
	}
	env.ds = nil
	s.droppedN.Add(1)
	s.p.Monitor.StageDrop(i, env.idx)
	env.rt.Instant("stage", s.p.Stages[i].Name, "dropped: attempts exhausted")
}

// forward hands env to the next stage (or the sink). The send may block on
// a full inbox — that is the backpressure path — but never deadlocks:
// every stage keeps at least one live consumer, the sink always consumes,
// and quit is only closed after in-flight drains to zero.
func (s *Stream) forward(i int, env sEnvelope) {
	env.attempts = 0
	s.inbox[i+1] <- env
}

// requeue returns env to the stage's own inbox so a surviving instance
// picks it up. The inbox is bounded, so a dying instance must never block
// on itself: when full, the data set resolves as dropped instead.
func (s *Stream) requeue(i int, env sEnvelope) {
	select {
	case s.inbox[i] <- env:
	default:
		s.drop(i, &env)
		s.forward(i, env)
	}
}

// sink resolves envelopes to their submitters.
func (s *Stream) sink() {
	defer s.wg.Done()
	l := len(s.p.Stages)
	mon := s.p.Monitor
	for {
		select {
		case env := <-s.inbox[l]:
			lat := time.Since(env.t0)
			if env.dropped {
				env.res <- StreamResult{Err: env.err, Latency: lat}
			} else {
				s.completed.Add(1)
				mon.Completed(lat.Seconds())
				env.res <- StreamResult{DS: env.ds, Latency: lat}
			}
			s.doneOne()
		case <-s.quit:
			return
		}
	}
}

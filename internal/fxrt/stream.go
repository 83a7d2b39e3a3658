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

// Stream is a long-running execution of a pipeline, and fxrt's only
// executor: data sets are pushed one at a time and each push returns a
// channel that delivers that data set's result. Run and RunWithEdges
// drive a Stream over a fixed batch. Inboxes are bounded (a full pipeline
// pushes back rather than buffering), the instances of a stage pull from
// one shared inbox (a dynamic round-robin, so a dead instance leaves the
// rotation simply by no longer pulling), every data set's outcome is
// delivered to its submitter, and Close drains in-flight work to zero
// before tearing the instances down.
//
// Failed attempts retry with capped exponential backoff, hung attempts are
// cut off by stage deadlines, data sets that exhaust their attempts
// resolve with an error (never aborting the stream), and repeatedly
// failing instances die and leave the rotation while survivors keep
// serving.
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
// attempt.
func (p *Pipeline) Stream(opts StreamOptions) (*Stream, error) {
	if err := p.validate(opts.Edges, false); err != nil {
		return nil, err
	}
	l := len(p.Stages)
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
	res := make(chan StreamResult, 1)
	if err := s.push(ctx, ds, rt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// push submits one data set whose result the sink sends on res.
func (s *Stream) push(ctx context.Context, ds DataSet, rt *obs.ReqTrace, res chan StreamResult) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStreamClosed
	}
	s.inflight++
	s.mu.Unlock()
	env := sEnvelope{
		idx: int(s.seq.Add(1) - 1),
		ds:  ds,
		t0:  time.Now(),
		res: res,
		rt:  rt,
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.inbox[0] <- env:
		return nil
	case <-done:
		s.doneOne()
		return ctx.Err()
	}
}

// InFlight reports the number of pushed data sets not yet resolved.
func (s *Stream) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
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

// replica is the state of one stage instance.
type replica struct {
	i, b int // stage and replica index
	st   Stage
	ctx  *StageCtx
	// attempts tracks attempts abandoned at their deadline, so the group
	// closes only after they finish.
	attempts   sync.WaitGroup
	consecFail int
}

// instance is the body of instance b of stage i.
func (s *Stream) instance(i, b int) {
	st := s.p.Stages[i]
	g, _ := NewGroup(st.Workers) // Workers >= 1 was validated in Stream
	r := &replica{i: i, b: b, st: st,
		ctx: &StageCtx{Group: g, Instance: b, Rec: s.rec, Deadline: s.p.deadlineFor(i)}}
	// Abandoned (timed-out) attempts may still be running on the group;
	// close it only after they finish, without blocking shutdown.
	defer func() {
		go func() {
			r.attempts.Wait()
			g.Close()
		}()
	}()
	for {
		select {
		case env := <-s.inbox[i]:
			if s.process(r, env) {
				return // instance died
			}
		case <-s.quit:
			return
		}
	}
}

// process runs one envelope through r's stage, retrying per the pipeline
// policy. It reports true when the instance declared itself dead (the
// envelope was requeued to a surviving replica).
func (s *Stream) process(r *replica, env sEnvelope) bool {
	i, name := r.i, r.st.Name
	if env.dropped {
		s.forward(i, env)
		return false
	}
	mon := s.p.Monitor
	for {
		t0 := time.Now()
		out, err, timedOut := s.attempt(r, env.ds, env.idx, env.attempts)
		dur := time.Since(t0)
		outcome := "ok"
		if timedOut {
			outcome = "timeout"
		} else if err != nil {
			outcome = "error"
		}
		env.rt.StageSpan(name, i, r.b, env.attempts, outcome, t0, dur)
		if err == nil {
			mon.StageDone(i, dur.Seconds())
			if s.recycle && i > 0 && s.edges != nil {
				if e := s.edges[i-1]; e.Transfer != nil && e.Release != nil {
					e.Release(env.ds)
				}
			}
			env.ds = out
			env.attempts = 0
			r.consecFail = 0
			s.forward(i, env)
			return false
		}
		env.attempts++
		env.err = err
		r.consecFail++
		if timedOut {
			s.timeouts.Add(1)
			mon.StageTimeout(i, env.idx)
		}
		if s.p.DeadAfter > 0 && r.consecFail >= s.p.DeadAfter {
			// Die only if another live instance remains to serve the
			// stream; the last instance soldiers on.
			if s.live[i].Add(-1) >= 1 {
				s.deaths.Add(1)
				mon.InstanceDeath(i, env.idx)
				env.rt.Instant("stage", name, "instance death; requeued")
				// Requeue to a surviving instance with a fresh budget. The
				// send may block on a full inbox but cannot deadlock: this
				// instance has left the live count, at least one survivor
				// keeps pulling, and quit closes only after in-flight
				// drains to zero.
				env.attempts = 0
				s.inbox[i] <- env
				return true
			}
			s.live[i].Add(1)
		}
		if env.attempts > s.p.Retry.MaxRetries {
			// Attempts exhausted: tombstone the data set; the sink
			// resolves it with the last attempt's error.
			env.dropped = true
			env.ds = nil
			s.droppedN.Add(1)
			mon.StageDrop(i, env.idx)
			env.rt.Instant("stage", name, "dropped: attempts exhausted")
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

// attempt executes one try of r's stage on a data set: the incoming edge
// transfer (if any), injected faults, and the stage function, bounded by
// the stage deadline. An attempt cut off at its deadline keeps running
// detached, tracked by r.attempts; injected hangs end when the stream
// closes.
func (s *Stream) attempt(r *replica, in DataSet, idx, attemptNo int) (DataSet, error, bool) {
	i, b, st := r.i, r.b, r.st
	run := func() (DataSet, error) {
		v := in
		if i > 0 && s.edges != nil && s.edges[i-1].Transfer != nil {
			e := s.edges[i-1]
			t := time.Now()
			out, err := e.Transfer(r.ctx, v)
			s.rec.Observe(e.Name, time.Since(t).Seconds())
			if err != nil {
				return nil, fmt.Errorf("fxrt: edge %s data set %d: %w", e.Name, idx, err)
			}
			v = out
		}
		if f := s.p.matchFault(i, b, idx, attemptNo); f != nil {
			switch f.Kind {
			case FaultFail:
				return nil, fmt.Errorf("fxrt: injected failure at stage %s instance %d data set %d attempt %d",
					st.Name, b, idx, attemptNo)
			case FaultHang:
				<-s.release
				return nil, fmt.Errorf("fxrt: injected hang at stage %s instance %d data set %d released",
					st.Name, b, idx)
			case FaultSlow:
				time.Sleep(f.Delay)
			}
		}
		out, err := st.Run(r.ctx, v)
		if err != nil {
			return nil, fmt.Errorf("fxrt: stage %s instance %d data set %d: %w", st.Name, b, idx, err)
		}
		return out, nil
	}
	deadline := r.ctx.Deadline
	if deadline <= 0 {
		out, err := run()
		return out, err, false
	}
	type result struct {
		ds  DataSet
		err error
	}
	ch := make(chan result, 1)
	r.attempts.Add(1)
	go func() {
		defer r.attempts.Done()
		out, err := run()
		ch <- result{out, err}
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.ds, res.err, false
	case <-timer.C:
		return nil, fmt.Errorf("fxrt: stage %s instance %d data set %d: deadline %v exceeded",
			st.Name, b, idx, deadline), true
	}
}

// forward hands env to the next stage (or the sink). The send may block on
// a full inbox — that is the backpressure path — but never deadlocks:
// every stage keeps at least one live consumer, the sink always consumes,
// and quit is only closed after in-flight drains to zero.
func (s *Stream) forward(i int, env sEnvelope) {
	env.attempts = 0
	s.inbox[i+1] <- env
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

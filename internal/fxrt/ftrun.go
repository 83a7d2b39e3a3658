package fxrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ftEnvelope carries a data set through the fault-tolerant executor.
type ftEnvelope struct {
	idx      int
	ds       DataSet
	t0       time.Time
	dropped  bool
	attempts int // attempts at the current stage
}

// ftRun holds the shared state of one fault-tolerant execution.
//
// Unlike the strict executor, stages pull work from a shared per-stage
// inbox: the round-robin over instances is dynamic, so a dead instance is
// removed from rotation simply by no longer pulling, and the survivors
// absorb its share of the stream at reduced throughput. Dropped data sets
// keep flowing as tombstones so every stage and the sink account for
// exactly n envelopes. Inboxes are buffered generously (sends never
// block), which relaxes the paper's rendezvous timing model; use the
// strict executor (no fault-tolerance options) for model validation runs.
type ftRun struct {
	p     *Pipeline
	edges []Edge
	rec   *Recorder
	n     int
	// tidBase[i] is the trace thread id of stage i's instance 0; instance b
	// traces on tidBase[i]+b, giving every replica its own viewer row.
	tidBase []int

	inbox []chan ftEnvelope
	done  []atomic.Int64 // envelopes forwarded past each stage
	quit  []chan struct{}
	once  []sync.Once
	live  []atomic.Int32

	// release is closed at the end of the run to unblock injected hangs,
	// so abandoned attempt goroutines can exit.
	release chan struct{}

	retried  atomic.Int64
	droppedN atomic.Int64
	timeouts atomic.Int64
	deaths   atomic.Int64
}

// runFT executes the pipeline with retries, deadlines, fault injection and
// graceful instance death. edges is nil for plain Run; with edges, each
// transfer executes on the receiving instance as part of the stage attempt
// (and is retried with it), without blocking the sender.
func (p *Pipeline) runFT(source func(i int) DataSet, n, warmup int, edges []Edge) (Stats, error) {
	l := len(p.Stages)
	totalReps := 0
	for _, s := range p.Stages {
		totalReps += s.Replicas
	}
	r := &ftRun{
		p:       p,
		edges:   edges,
		rec:     NewRecorder(),
		n:       n,
		tidBase: make([]int, l),
		inbox:   make([]chan ftEnvelope, l+1),
		done:    make([]atomic.Int64, l),
		quit:    make([]chan struct{}, l),
		once:    make([]sync.Once, l),
		live:    make([]atomic.Int32, l),
		release: make(chan struct{}),
	}
	for i, base := 0, 0; i < l; i++ {
		r.tidBase[i] = base
		if p.Obs != nil {
			for b := 0; b < p.Stages[i].Replicas; b++ {
				p.Obs.NameThread(base+b, fmt.Sprintf("%s/%d", p.Stages[i].Name, b))
			}
		}
		base += p.Stages[i].Replicas
	}
	for i := 0; i <= l; i++ {
		// Capacity covers all n envelopes plus every possible death
		// requeue, so no send can block (or deadlock on a dead peer).
		r.inbox[i] = make(chan ftEnvelope, n+totalReps+1)
	}
	for i := 0; i < l; i++ {
		r.quit[i] = make(chan struct{})
		r.live[i].Store(int32(p.Stages[i].Replicas))
	}

	var wg sync.WaitGroup
	for i := 0; i < l; i++ {
		for b := 0; b < p.Stages[i].Replicas; b++ {
			wg.Add(1)
			go func(i, b int) {
				defer wg.Done()
				r.instance(i, b)
			}(i, b)
		}
	}

	mon := p.Monitor
	mon.Start()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for idx := 0; idx < n; idx++ {
			r.inbox[0] <- ftEnvelope{idx: idx, ds: source(idx), t0: time.Now()}
		}
	}()

	// Sink: every data set arrives exactly once, completed or tombstoned.
	// Requeues and retries reorder the stream arbitrarily, so the warmup
	// window is delimited by completion order at the sink (whose
	// timestamps are monotone), not by stream index.
	var latSum time.Duration
	completed := 0
	var windowStart, windowEnd time.Time
	for got := 0; got < n; got++ {
		env := <-r.inbox[l]
		if env.dropped {
			continue
		}
		now := time.Now()
		latSum += now.Sub(env.t0)
		mon.Completed(now.Sub(env.t0).Seconds())
		completed++
		windowEnd = now
		if completed == warmup+1 {
			windowStart = now
		}
	}
	wg.Wait()
	close(r.release)
	mon.Finish()

	stats := Stats{
		DataSets: n,
		Ops:      r.rec.Means(),
		OpStats:  r.rec.Summary(),
		Retried:  int(r.retried.Load()),
		Dropped:  int(r.droppedN.Load()),
		Timeouts: int(r.timeouts.Load()),
		Dead:     int(r.deaths.Load()),
	}
	if completed > 0 {
		stats.Elapsed = windowEnd.Sub(start)
		stats.Latency = latSum / time.Duration(completed)
	}
	if window := windowEnd.Sub(windowStart); completed > warmup+1 && window > 0 {
		stats.Throughput = float64(completed-warmup-1) / window.Seconds()
	}
	return stats, nil
}

// instance is the body of one stage replica: pull, attempt with retries,
// forward (or die and requeue).
func (r *ftRun) instance(i, b int) {
	st := r.p.Stages[i]
	g, gerr := NewGroup(st.Workers)
	if g != nil {
		// Abandoned (timed-out) attempts may still be running on the
		// group; close it only after they finish, without blocking the
		// pipeline's exit. Injected hangs finish when release is closed;
		// genuinely hung user code keeps its group open (documented).
		var attempts sync.WaitGroup
		defer func() {
			go func() {
				attempts.Wait()
				g.Close()
			}()
		}()
		r.serve(i, b, st, g, &attempts)
		return
	}
	_ = gerr // cannot happen: Workers >= 1 is validated before the run
	r.serve(i, b, st, nil, &sync.WaitGroup{})
}

func (r *ftRun) serve(i, b int, st Stage, g *Group, attempts *sync.WaitGroup) {
	deadline := r.p.deadlineFor(i)
	ctx := &StageCtx{Group: g, Instance: b, Rec: r.rec, Deadline: deadline}
	tr := r.p.Obs
	mon := r.p.Monitor
	tid := r.tidBase[i] + b
	maxAttempts := r.p.Retry.MaxRetries + 1
	consecFail := 0
	for {
		var env ftEnvelope
		select {
		case env = <-r.inbox[i]:
		case <-r.quit[i]:
			return
		}
		if env.dropped {
			r.forward(i, env)
			continue
		}
		for {
			t0 := time.Now()
			out, err, timedOut := r.attempt(ctx, i, b, st, deadline, attempts, &env)
			outcome := "ok"
			if timedOut {
				outcome = "timeout"
			} else if err != nil {
				outcome = "error"
			}
			tr.StageSpan(st.Name, tid, env.idx, env.attempts, outcome, t0, time.Since(t0))
			if err == nil {
				mon.StageDone(i, time.Since(t0).Seconds())
				env.ds = out
				env.attempts = 0
				consecFail = 0
				r.forward(i, env)
				break
			}
			env.attempts++
			consecFail++
			if timedOut {
				r.timeouts.Add(1)
				mon.StageTimeout(i, env.idx)
			}
			if r.p.DeadAfter > 0 && consecFail >= r.p.DeadAfter {
				// Die only if another live instance remains to serve the
				// stream; the last instance soldiers on, dropping what it
				// cannot process.
				if r.live[i].Add(-1) >= 1 {
					r.deaths.Add(1)
					mon.InstanceDeath(i, env.idx)
					if tr.Enabled() {
						tr.InstantArgs("fault", "instance-death", tid, time.Now(),
							map[string]any{"dataset": env.idx, "stage": st.Name})
					}
					env.attempts = 0 // fresh budget on a surviving instance
					r.requeue(i, env)
					return
				}
				r.live[i].Add(1)
			}
			if env.attempts >= maxAttempts {
				env.dropped = true
				env.ds = nil
				r.droppedN.Add(1)
				mon.StageDrop(i, env.idx)
				if tr.Enabled() {
					tr.InstantArgs("fault", "drop", tid, time.Now(),
						map[string]any{"dataset": env.idx, "stage": st.Name})
				}
				r.forward(i, env)
				break
			}
			r.retried.Add(1)
			mon.StageRetry(i, env.idx)
			if d := r.p.Retry.BackoffFor(env.attempts); d > 0 {
				time.Sleep(d)
			}
		}
	}
}

// attempt executes one try of stage i on env: the incoming edge transfer
// (if any), injected faults, and the stage function, bounded by deadline.
func (r *ftRun) attempt(ctx *StageCtx, i, b int, st Stage, deadline time.Duration,
	attempts *sync.WaitGroup, env *ftEnvelope) (DataSet, error, bool) {
	return attemptOnce(r.p, r.rec, r.edges, r.release, ctx, i, b, st, deadline,
		attempts, env.ds, env.idx, env.attempts)
}

// attemptOnce executes one try of stage i on a data set: the incoming edge
// transfer (if any), injected faults, and the stage function, bounded by
// deadline. It is shared by the batch fault-tolerant executor and the
// streaming executor. release unblocks injected hangs when the run ends;
// attempts tracks abandoned (timed-out) goroutines so the instance's group
// closes only after they finish.
func attemptOnce(p *Pipeline, rec *Recorder, edges []Edge, release chan struct{},
	ctx *StageCtx, i, b int, st Stage, deadline time.Duration,
	attempts *sync.WaitGroup, in DataSet, idx, attemptNo int) (DataSet, error, bool) {
	run := func() (DataSet, error) {
		v := in
		if i > 0 && edges != nil && edges[i-1].Transfer != nil {
			t := time.Now()
			out, err := edges[i-1].Transfer(ctx, v)
			rec.Observe(edges[i-1].Name, time.Since(t).Seconds())
			if err != nil {
				return nil, fmt.Errorf("fxrt: edge %s data set %d: %w", edges[i-1].Name, idx, err)
			}
			v = out
		}
		if f := p.matchFault(i, b, idx, attemptNo); f != nil {
			switch f.Kind {
			case FaultFail:
				return nil, fmt.Errorf("fxrt: injected failure at stage %s instance %d data set %d attempt %d",
					st.Name, b, idx, attemptNo)
			case FaultHang:
				<-release
				return nil, fmt.Errorf("fxrt: injected hang at stage %s instance %d data set %d released",
					st.Name, b, idx)
			case FaultSlow:
				time.Sleep(f.Delay)
			}
		}
		return st.Run(ctx, v)
	}
	if deadline <= 0 {
		out, err := run()
		return out, err, false
	}
	type result struct {
		ds  DataSet
		err error
	}
	ch := make(chan result, 1)
	attempts.Add(1)
	go func() {
		defer attempts.Done()
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

// forward hands env to the next stage (or the sink) and closes the stage's
// quit channel once all n data sets have passed it. Inbox capacity
// guarantees the send never blocks.
func (r *ftRun) forward(i int, env ftEnvelope) {
	env.attempts = 0
	r.inbox[i+1] <- env
	if r.done[i].Add(1) == int64(r.n) {
		r.once[i].Do(func() { close(r.quit[i]) })
	}
}

// requeue returns env to the stage's own inbox so a surviving instance
// picks it up. The capacity bound covers all possible requeues, but drop
// defensively rather than ever blocking a dying instance.
func (r *ftRun) requeue(i int, env ftEnvelope) {
	select {
	case r.inbox[i] <- env:
	default:
		env.dropped = true
		env.ds = nil
		r.droppedN.Add(1)
		r.p.Monitor.StageDrop(i, env.idx)
		r.forward(i, env)
	}
}

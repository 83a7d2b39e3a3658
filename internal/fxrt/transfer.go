package fxrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Edge optionally attaches a real data transfer to a pipeline edge,
// mirroring the paper's communication model: the sending and receiving
// instances are both occupied for the entire duration of the transfer.
// When an edge has a Transfer function, the downstream instance executes
// it at handoff while the upstream instance blocks until it completes —
// exactly the rendezvous semantics of section 2.1 — and its duration is
// recorded under Name.
type Edge struct {
	// Name labels the transfer in recorded statistics (e.g.
	// "edge:transpose").
	Name string
	// Transfer converts the upstream output into the downstream input. It
	// runs on the receiving instance's worker group; the sender is blocked
	// while it runs. A nil Transfer makes the handoff free (pointer pass).
	Transfer func(recv *StageCtx, in DataSet) (DataSet, error)
	// Release, when set, recycles the data set Transfer read, which must
	// not be the one it returned. Stream calls it once the receiving
	// stage's attempt has succeeded — never earlier, because every retry
	// re-runs Transfer from the same data set — and only when no stage of
	// the pipeline has a deadline, because an attempt abandoned at its
	// deadline keeps running detached and may still read it. Batch runs
	// never call it.
	Release func(in DataSet)
}

// transferEnvelope carries a data set plus a completion signal so the
// sender can block for the transfer duration.
type transferEnvelope struct {
	envelope
	done chan struct{}
}

// RunWithEdges streams n data sets through the pipeline with explicit
// edge transfers; edges must have len(p.Stages)-1 entries (individual
// entries may have a nil Transfer). Unlike plain Run, the sender of an
// edge with a Transfer is blocked until the receiver finishes executing
// it, charging the transfer time to both sides as the execution model
// prescribes.
func (p *Pipeline) RunWithEdges(source func(i int) DataSet, n, warmup int, edges []Edge) (Stats, error) {
	warmup, err := p.validate(n, warmup, edges, true)
	if err != nil {
		return Stats{}, err
	}
	if p.faultTolerant() {
		return p.runFT(source, n, warmup, edges)
	}

	rec := NewRecorder()
	l := len(p.Stages)
	ch := make([][][]chan transferEnvelope, l+1)
	for i := 0; i <= l; i++ {
		var from, to int
		switch i {
		case 0:
			from, to = 1, p.Stages[0].Replicas
		case l:
			from, to = p.Stages[l-1].Replicas, 1
		default:
			from, to = p.Stages[i-1].Replicas, p.Stages[i].Replicas
		}
		ch[i] = make([][]chan transferEnvelope, from)
		for a := 0; a < from; a++ {
			ch[i][a] = make([]chan transferEnvelope, to)
			for b := 0; b < to; b++ {
				ch[i][a][b] = make(chan transferEnvelope)
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
	for i := 0; i < l; i++ {
		st := p.Stages[i]
		for b := 0; b < st.Replicas; b++ {
			wg.Add(1)
			go func(i, b int, st Stage) {
				defer wg.Done()
				g, gerr := NewGroup(st.Workers)
				if gerr != nil {
					setErr(gerr)
				} else {
					defer g.Close()
				}
				ctx := &StageCtx{Group: g, Instance: b, Rec: rec}
				prevReps := 1
				if i > 0 {
					prevReps = p.Stages[i-1].Replicas
				}
				nextReps := 1
				if i < l-1 {
					nextReps = p.Stages[i+1].Replicas
				}
				for idx := b; idx < n; idx += st.Replicas {
					env := <-ch[i][idx%prevReps][b]
					// Incoming edge transfer: executed here (the receiver)
					// while the sender blocks on env.done.
					if i > 0 && edges[i-1].Transfer != nil && g != nil && !failed.Load() {
						start := time.Now()
						out, err := edges[i-1].Transfer(ctx, env.ds)
						rec.Observe(edges[i-1].Name, time.Since(start).Seconds())
						if err != nil {
							setErr(fmt.Errorf("fxrt: edge %s data set %d: %w",
								edges[i-1].Name, idx, err))
						} else {
							env.ds = out
						}
					}
					if env.done != nil {
						close(env.done) // release the sender
					}
					if g != nil && !failed.Load() {
						out, err := st.Run(ctx, env.ds)
						if err != nil {
							setErr(fmt.Errorf("fxrt: stage %s instance %d data set %d: %w",
								st.Name, b, idx, err))
						} else {
							env.ds = out
						}
					}
					// Outgoing handoff: block until the receiver finishes
					// the next edge's transfer (rendezvous).
					next := transferEnvelope{envelope: env.envelope}
					next.ds = env.ds
					if i < l-1 && edges[i].Transfer != nil {
						next.done = make(chan struct{})
					}
					ch[i+1][b][idx%nextReps] <- next
					if next.done != nil {
						<-next.done
					}
				}
			}(i, b, st)
		}
	}

	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r0 := p.Stages[0].Replicas
		for idx := 0; idx < n; idx++ {
			ch[0][0][idx%r0] <- transferEnvelope{
				envelope: envelope{idx: idx, ds: source(idx), t0: time.Now()},
			}
		}
	}()

	lastReps := p.Stages[l-1].Replicas
	outTimes := make([]time.Time, n)
	var latSum time.Duration
	for idx := 0; idx < n; idx++ {
		env := <-ch[l][idx%lastReps][0]
		if env.done != nil {
			close(env.done)
		}
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
	// Output times can arrive out of order across instances; delimit the
	// window with running maxima.
	var windowStart, windowEnd time.Time
	for d := 0; d < n; d++ {
		if outTimes[d].After(windowEnd) {
			windowEnd = outTimes[d]
		}
		if d <= warmup && outTimes[d].After(windowStart) {
			windowStart = outTimes[d]
		}
	}
	if window := windowEnd.Sub(windowStart); window > 0 {
		stats.Throughput = float64(n-1-warmup) / window.Seconds()
	}
	return stats, nil
}

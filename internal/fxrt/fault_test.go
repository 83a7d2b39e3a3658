package fxrt

import (
	"sync/atomic"
	"testing"
	"time"
)

// workStage returns a stage doing d of busy-sleep per data set.
func workStage(name string, replicas int, d time.Duration, processed *int32) Stage {
	return Stage{Name: name, Workers: 1, Replicas: replicas,
		Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			if d > 0 {
				time.Sleep(d)
			}
			if processed != nil {
				atomic.AddInt32(processed, 1)
			}
			return in, nil
		}}
}

func TestTransientFailureCompletesViaRetries(t *testing.T) {
	results := make([]int64, 40)
	p := &Pipeline{
		Stages: []Stage{
			{Name: "sq", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				v := in.(int)
				return [2]int{v, v * v}, nil
			}},
			{Name: "store", Workers: 1, Replicas: 1, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				kv := in.([2]int)
				atomic.StoreInt64(&results[kv[0]], int64(kv[1]))
				return in, nil
			}},
		},
		Retry: RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		// Data set 7 fails its first two attempts at stage 0, on any
		// instance, then heals.
		Faults: []Fault{{Stage: 0, Instance: -1, DataSet: 7, Kind: FaultFail, Attempts: 2}},
	}
	stats, err := p.Run(func(i int) DataSet { return i }, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 {
		t.Errorf("dropped %d data sets, want 0", stats.Dropped)
	}
	if stats.Retried < 2 {
		t.Errorf("retried %d times, want >= 2", stats.Retried)
	}
	for i := range results {
		if results[i] != int64(i*i) {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i*i)
		}
	}
}

func TestHungStageHitsDeadlineAndDrops(t *testing.T) {
	var processed int32
	p := &Pipeline{
		Stages: []Stage{
			workStage("w", 2, 0, &processed),
		},
		StageDeadline: 25 * time.Millisecond,
		// Data set 3 hangs forever on every attempt; with no retries it is
		// dropped after one deadline.
		Faults: []Fault{{Stage: 0, Instance: -1, DataSet: 3, Kind: FaultHang}},
	}
	n := 20
	stats, err := p.Run(func(i int) DataSet { return i }, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Errorf("dropped %d data sets, want 1", stats.Dropped)
	}
	if stats.Timeouts < 1 {
		t.Errorf("timeouts = %d, want >= 1", stats.Timeouts)
	}
	if int(processed) != n-1 {
		t.Errorf("processed %d data sets, want %d", processed, n-1)
	}
}

func TestDeadInstanceDegradesThroughputButCompletes(t *testing.T) {
	const n, work = 60, 3 * time.Millisecond
	run := func(faults []Fault) Stats {
		var processed int32
		p := &Pipeline{
			Stages:    []Stage{workStage("w", 3, work, &processed)},
			Retry:     RetryPolicy{MaxRetries: 1},
			DeadAfter: 1,
			Faults:    faults,
		}
		stats, err := p.Run(func(i int) DataSet { return i }, n, 10)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Dropped != 0 {
			t.Fatalf("dropped %d data sets, want 0", stats.Dropped)
		}
		if int(processed) != n {
			t.Fatalf("processed %d data sets, want %d", processed, n)
		}
		return stats
	}
	healthy := run(nil)
	// Instance 1 fails permanently: after DeadAfter=1 failures it is
	// declared dead, its data set is requeued, and 2 of 3 replicas serve
	// the rest of the stream.
	degraded := run([]Fault{{Stage: 0, Instance: 1, DataSet: -1, Kind: FaultFail}})
	if degraded.Dead != 1 {
		t.Errorf("dead instances = %d, want 1", degraded.Dead)
	}
	if degraded.Throughput >= healthy.Throughput*0.9 {
		t.Errorf("throughput did not degrade: healthy %.1f/s, one replica dead %.1f/s",
			healthy.Throughput, degraded.Throughput)
	}
}

func TestLastInstanceNeverDies(t *testing.T) {
	p := &Pipeline{
		Stages:    []Stage{workStage("solo", 1, 0, nil)},
		DeadAfter: 1,
		// Every data set fails on the only instance: the instance must
		// stay in rotation and drop them all rather than abandoning the
		// stream.
		Faults: []Fault{{Stage: 0, Instance: -1, DataSet: -1, Kind: FaultFail}},
	}
	n := 10
	stats, err := p.Run(func(i int) DataSet { return i }, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dead != 0 {
		t.Errorf("dead instances = %d, want 0 (last instance must survive)", stats.Dead)
	}
	if stats.Dropped != n {
		t.Errorf("dropped %d, want all %d", stats.Dropped, n)
	}
}

func TestSlowFaultTimesOutThenRetrySucceeds(t *testing.T) {
	p := &Pipeline{
		Stages:        []Stage{workStage("w", 1, 0, nil)},
		StageDeadline: 20 * time.Millisecond,
		Retry:         RetryPolicy{MaxRetries: 2},
		// First attempt on data set 5 is slowed past the deadline; the
		// retry runs at full speed.
		Faults: []Fault{{Stage: 0, Instance: -1, DataSet: 5, Kind: FaultSlow,
			Attempts: 1, Delay: 200 * time.Millisecond}},
	}
	stats, err := p.Run(func(i int) DataSet { return i }, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts < 1 {
		t.Errorf("timeouts = %d, want >= 1", stats.Timeouts)
	}
	if stats.Dropped != 0 {
		t.Errorf("dropped %d, want 0", stats.Dropped)
	}
}

func TestFaultTolerantRunWithEdges(t *testing.T) {
	final := make([]int64, 30)
	var transfers int32
	p := &Pipeline{
		Stages: []Stage{
			{Name: "gen", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				v := in.(int)
				return [2]int{v, v * 10}, nil
			}},
			{Name: "sink", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				kv := in.([2]int)
				atomic.StoreInt64(&final[kv[0]], int64(kv[1]))
				return in, nil
			}},
		},
		Retry:  RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond},
		Faults: []Fault{{Stage: 1, Instance: -1, DataSet: 11, Kind: FaultFail, Attempts: 1}},
	}
	edges := []Edge{{
		Name: "edge:inc",
		Transfer: func(recv *StageCtx, in DataSet) (DataSet, error) {
			atomic.AddInt32(&transfers, 1)
			kv := in.([2]int)
			kv[1]++
			return kv, nil
		},
	}}
	stats, err := p.RunWithEdges(func(i int) DataSet { return i }, 30, 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 || stats.Retried < 1 {
		t.Errorf("dropped=%d retried=%d, want 0 and >=1", stats.Dropped, stats.Retried)
	}
	// The transfer reruns with the retried attempt, so at least n runs.
	if int(transfers) < 30 {
		t.Errorf("transfer ran %d times, want >= 30", transfers)
	}
	for i := range final {
		if final[i] != int64(i*10+1) {
			t.Errorf("final[%d] = %d, want %d", i, final[i], i*10+1)
		}
	}
	if _, ok := stats.Ops["edge:inc"]; !ok {
		t.Errorf("transfer time not recorded: %v", stats.Ops)
	}
}

func TestSlowFaultVisibleInOpStats(t *testing.T) {
	p := &Pipeline{
		Stages: []Stage{{Name: "s", Workers: 1, Replicas: 2,
			Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				return in, ctx.Rec.Time("exec:s", func() error {
					time.Sleep(time.Millisecond)
					return nil
				})
			}}},
		// Slow down instance 1 on data set 4.
		Faults: []Fault{{Stage: 0, Instance: 1, DataSet: 4, Kind: FaultSlow, Delay: 30 * time.Millisecond}},
	}
	// The injected delay happens before st.Run, so the stage's own exec:s
	// samples show only its 1 ms of work; check that they reach Stats.Ops
	// end to end.
	stats, err := p.Run(func(i int) DataSet { return i }, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	mean, ok := stats.Ops["exec:s"]
	if !ok {
		t.Fatalf("Ops missing exec:s: %v", stats.Ops)
	}
	if mean < 1e-3 {
		t.Errorf("exec:s mean = %gs, want >= 1ms", mean)
	}
}

func TestBackoffCapped(t *testing.T) {
	rp := RetryPolicy{MaxRetries: 10, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	if d := rp.BackoffFor(1); d != time.Millisecond {
		t.Errorf("backoff(1) = %v", d)
	}
	if d := rp.BackoffFor(2); d != 2*time.Millisecond {
		t.Errorf("backoff(2) = %v", d)
	}
	if d := rp.BackoffFor(3); d != 4*time.Millisecond {
		t.Errorf("backoff(3) = %v", d)
	}
	if d := rp.BackoffFor(4); d != 5*time.Millisecond {
		t.Errorf("backoff(4) = %v, want capped at 5ms", d)
	}
	if d := rp.BackoffFor(30); d != 5*time.Millisecond {
		t.Errorf("backoff(30) = %v, want capped at 5ms", d)
	}
	if d := (RetryPolicy{}).BackoffFor(3); d != 0 {
		t.Errorf("zero policy backoff = %v, want 0", d)
	}
}

func TestValidationErrorsComeBeforeEdgeCount(t *testing.T) {
	// An empty pipeline must report "no stages", not a confusing edge
	// count mismatch.
	_, err := (&Pipeline{}).RunWithEdges(func(i int) DataSet { return i }, 10, 1, nil)
	if err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if got := err.Error(); got != "fxrt: pipeline has no stages" {
		t.Errorf("empty pipeline error = %q, want the no-stages message", got)
	}
}

package fxrt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupParallelForCoversRange(t *testing.T) {
	g, err := NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var hits [100]int32
	err = g.ParallelFor(100, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestGroupParallelForEmptyAndSmall(t *testing.T) {
	g, err := NewGroup(8)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.ParallelFor(0, func(lo, hi int) error { return nil }); err != nil {
		t.Error(err)
	}
	// total < workers: each index once.
	var n int32
	if err := g.ParallelFor(3, func(lo, hi int) error {
		atomic.AddInt32(&n, int32(hi-lo))
		return nil
	}); err != nil {
		t.Error(err)
	}
	if n != 3 {
		t.Errorf("visited %d of 3", n)
	}
}

func TestGroupParallelForError(t *testing.T) {
	g, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	wantErr := fmt.Errorf("boom")
	err = g.ParallelFor(10, func(lo, hi int) error {
		if lo == 0 {
			return wantErr
		}
		return nil
	})
	if err == nil {
		t.Error("error swallowed")
	}
}

func TestNewGroupInvalid(t *testing.T) {
	if _, err := NewGroup(0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestGroupCloseIdempotent(t *testing.T) {
	g, err := NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close()
}

func TestPipelinePreservesOrderAndProcessesAll(t *testing.T) {
	var processed int32
	p := &Pipeline{Stages: []Stage{
		{Name: "double", Workers: 2, Replicas: 3, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			atomic.AddInt32(&processed, 1)
			return in.(int) * 2, nil
		}},
		{Name: "inc", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			return in.(int) + 1, nil
		}},
	}}
	n := 50
	stats, err := p.Run(func(i int) DataSet { return i }, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataSets != n || int(processed) != n {
		t.Errorf("processed %d data sets, want %d", processed, n)
	}
	if stats.Throughput <= 0 {
		t.Errorf("throughput %g", stats.Throughput)
	}
}

func TestPipelineComputesCorrectValues(t *testing.T) {
	// Route results to a results slice via the final stage and check every
	// data set was transformed exactly once despite replication.
	results := make([]int64, 64)
	p := &Pipeline{Stages: []Stage{
		{Name: "square", Workers: 1, Replicas: 4, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			v := in.(int)
			return [2]int{v, v * v}, nil
		}},
		{Name: "store", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			kv := in.([2]int)
			atomic.StoreInt64(&results[kv[0]], int64(kv[1]))
			return in, nil
		}},
	}}
	if _, err := p.Run(func(i int) DataSet { return i }, 64, 8); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != int64(i*i) {
			t.Fatalf("results[%d] = %d, want %d", i, results[i], i*i)
		}
	}
}

func TestPipelineReplicationImprovesThroughput(t *testing.T) {
	work := func(ctx *StageCtx, in DataSet) (DataSet, error) {
		time.Sleep(2 * time.Millisecond)
		return in, nil
	}
	run := func(reps int) float64 {
		p := &Pipeline{Stages: []Stage{{Name: "w", Workers: 1, Replicas: reps, Run: work}}}
		stats, err := p.Run(func(i int) DataSet { return i }, 60, 10)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Throughput
	}
	t1 := run(1)
	t4 := run(4)
	if t4 < 2*t1 {
		t.Errorf("4 replicas gave %.1f/s vs %.1f/s for 1; expected ~4x", t4, t1)
	}
}

func TestPipelineErrorPropagates(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		{Name: "ok", Workers: 1, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			return in, nil
		}},
		{Name: "bad", Workers: 1, Replicas: 1, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			if in.(int) == 7 {
				return nil, fmt.Errorf("poison")
			}
			return in, nil
		}},
	}}
	if _, err := p.Run(func(i int) DataSet { return i }, 20, 2); err == nil {
		t.Error("stage error swallowed")
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := (&Pipeline{}).Run(func(i int) DataSet { return i }, 10, 1); err == nil {
		t.Error("empty pipeline accepted")
	}
	p := &Pipeline{Stages: []Stage{{Name: "x", Workers: 0, Replicas: 1,
		Run: func(ctx *StageCtx, in DataSet) (DataSet, error) { return in, nil }}}}
	if _, err := p.Run(func(i int) DataSet { return i }, 10, 1); err == nil {
		t.Error("zero workers accepted")
	}
	p2 := &Pipeline{Stages: []Stage{{Name: "x", Workers: 1, Replicas: 1}}}
	if _, err := p2.Run(func(i int) DataSet { return i }, 10, 1); err == nil {
		t.Error("nil Run accepted")
	}
	p3 := &Pipeline{Stages: []Stage{{Name: "x", Workers: 1, Replicas: 1,
		Run: func(ctx *StageCtx, in DataSet) (DataSet, error) { return in, nil }}}}
	if _, err := p3.Run(func(i int) DataSet { return i }, 0, 0); err == nil {
		t.Error("zero data sets accepted")
	}
}

func TestPipelineErrorLeaksNoGoroutines(t *testing.T) {
	// A mid-stream stage error must wind down every stage instance and
	// worker Group: after Run returns, the goroutine count settles back to
	// its baseline (polled with retries to absorb scheduler lag).
	before := runtime.NumGoroutine()
	p := &Pipeline{Stages: []Stage{
		{Name: "a", Workers: 3, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			return in, nil
		}},
		{Name: "bad", Workers: 2, Replicas: 2, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			if in.(int) == 9 {
				return nil, fmt.Errorf("mid-stream failure")
			}
			return in, nil
		}},
	}}
	if _, err := p.Run(func(i int) DataSet { return i }, 30, 3); err == nil {
		t.Fatal("stage error swallowed")
	}
	var after int
	for attempt := 0; attempt < 100; attempt++ {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after failed run: %d before, %d after", before, after)
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Observe("op", 1.0)
	r.Observe("op", 3.0)
	if err := r.Time("timed", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	means := r.Means()
	if means["op"] != 2.0 {
		t.Errorf("mean = %g, want 2", means["op"])
	}
	if _, ok := means["timed"]; !ok {
		t.Error("timed op not recorded")
	}
}

// TestRecorderTimeRecordsErrorsSeparately is the regression test for the
// bug where Recorder.Time recorded failed operations under the bare name,
// silently mixing failed-attempt costs into the success samples. Failures
// must land under name+"/error".
func TestRecorderTimeRecordsErrorsSeparately(t *testing.T) {
	r := NewRecorder()
	if err := r.Time("op", func() error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("boom")
	if err := r.Time("op", func() error { return wantErr }); err != wantErr {
		t.Fatalf("Time swallowed the error: got %v", err)
	}
	means := r.Means()
	if len(means) != 2 {
		t.Fatalf("recorded ops = %v, want op and op/error", means)
	}
	if _, ok := means["op/error"]; !ok {
		t.Error("failed attempt lost: no op/error entry")
	}
	// The failure returned at once; had it joined the success samples, the
	// mean of op would have halved.
	if means["op"] < float64(time.Millisecond)/float64(time.Second) {
		t.Errorf("op mean = %gs, want >= 1ms (success sample only)", means["op"])
	}
}

func TestPipelineOpsRecorded(t *testing.T) {
	p := &Pipeline{Stages: []Stage{
		{Name: "s", Workers: 2, Replicas: 1, Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
			err := ctx.Rec.Time("exec:s", func() error {
				return ctx.Group.ParallelFor(8, func(lo, hi int) error { return nil })
			})
			return in, err
		}},
	}}
	stats, err := p.Run(func(i int) DataSet { return i }, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stats.Ops["exec:s"]; !ok {
		t.Errorf("ops missing exec:s: %v", stats.Ops)
	}
}

func TestBlockRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ total, parts int }{
		{10, 3}, {7, 7}, {3, 8}, {100, 1}, {0, 4}, {64, 10},
	} {
		covered := 0
		prevHi := 0
		for p := 0; p < tc.parts; p++ {
			lo, hi := BlockRange(tc.total, tc.parts, p)
			if lo != prevHi {
				t.Errorf("total=%d parts=%d part=%d: lo %d != prev hi %d",
					tc.total, tc.parts, p, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("negative block at part %d", p)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.total {
			t.Errorf("total=%d parts=%d: covered %d", tc.total, tc.parts, covered)
		}
		if prevHi != tc.total {
			t.Errorf("total=%d parts=%d: last hi %d", tc.total, tc.parts, prevHi)
		}
	}
}

func TestBlockRangeBalance(t *testing.T) {
	// Blocks differ by at most one item.
	min, max := 1<<30, 0
	for p := 0; p < 7; p++ {
		lo, hi := BlockRange(23, 7, p)
		if n := hi - lo; n < min {
			min = n
		} else if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("block sizes differ by %d", max-min)
	}
}

func TestBlockRangeInvalid(t *testing.T) {
	if lo, hi := BlockRange(10, 0, 0); lo != 0 || hi != 0 {
		t.Error("zero parts should yield empty range")
	}
	if lo, hi := BlockRange(10, 3, 5); lo != 0 || hi != 0 {
		t.Error("out-of-range part should yield empty range")
	}
}

func TestParallelReduceSums(t *testing.T) {
	g, err := NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Sum of squares over 16 parts.
	got, err := ParallelReduce(g, 16,
		func(part int) (int, error) { return part * part, nil },
		func(a, b int) (int, error) { return a + b, nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 16; i++ {
		want += i * i
	}
	if got != want {
		t.Errorf("reduce = %d, want %d", got, want)
	}
}

func TestParallelReduceErrors(t *testing.T) {
	g, err := NewGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := ParallelReduce(g, 0,
		func(int) (int, error) { return 0, nil },
		func(a, b int) (int, error) { return a + b, nil }); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := ParallelReduce(g, 4,
		func(p int) (int, error) {
			if p == 2 {
				return 0, fmt.Errorf("boom")
			}
			return p, nil
		},
		func(a, b int) (int, error) { return a + b, nil }); err == nil {
		t.Error("produce error swallowed")
	}
	if _, err := ParallelReduce(g, 4,
		func(p int) (int, error) { return p, nil },
		func(a, b int) (int, error) { return 0, fmt.Errorf("merge fail") }); err == nil {
		t.Error("combine error swallowed")
	}
}

// TestWindowThroughputReplicatedBursts feeds the throughput window the
// completion times of a last stage with r=5 replicas: every period T the
// five finish together, a little jittered. The rate must read r/T within
// 0.2% wherever the window opens. Counting the completions after the
// window's first over the time since that one reads 1.25% high when the
// window opens on a burst's first completion (n=400, warmup 80).
func TestWindowThroughputReplicatedBursts(t *testing.T) {
	const (
		r, n   = 5, 400
		period = 2 * time.Millisecond
	)
	want := r / period.Seconds()
	rng := rand.New(rand.NewSource(1))
	done := make([]time.Duration, 0, n)
	for j := 0; j < n/r; j++ {
		for i := 0; i < r; i++ {
			jitter := time.Duration(rng.Int63n(int64(period / 20)))
			done = append(done, time.Duration(j+1)*period+jitter)
		}
	}
	slices.Sort(done)
	sinceFirst := func(warmup int) float64 {
		return float64(len(done)-warmup-1) / (done[len(done)-1] - done[warmup]).Seconds()
	}
	if got := sinceFirst(n / 5); math.Abs(got/want-1) < 0.002 {
		t.Fatalf("burst-aligned window read %.1f/s by counting since its first completion, want it off r/T = %.1f/s", got, want)
	}
	for warmup := n/5 - r; warmup <= n/5+r; warmup++ {
		if got := WindowThroughput(done, warmup); math.Abs(got/want-1) > 0.002 {
			t.Errorf("warmup %d: throughput %.2f/s, want r/T = %.2f/s within 0.2%%", warmup, got, want)
		}
	}
	if got := WindowThroughput(done[:3], 2); got != 0 {
		t.Errorf("one completion after warmup: throughput %g, want 0", got)
	}
}

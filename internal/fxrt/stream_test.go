package fxrt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipemap/internal/obs/live"
)

// echoPipeline returns a pipeline that increments an int data set at every
// stage.
func echoPipeline(stages, replicas int) *Pipeline {
	p := &Pipeline{}
	for i := 0; i < stages; i++ {
		p.Stages = append(p.Stages, Stage{
			Name: fmt.Sprintf("s%d", i), Workers: 1, Replicas: replicas,
			Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
				return in.(int) + 1, nil
			},
		})
	}
	return p
}

func TestStreamDeliversResults(t *testing.T) {
	s, err := echoPipeline(3, 1).Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := s.Push(context.Background(), i)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		r := <-res
		if r.Err != nil {
			t.Fatalf("data set %d: %v", i, r.Err)
		}
		if got := r.DS.(int); got != i+3 {
			t.Fatalf("data set %d: got %d, want %d", i, got, i+3)
		}
		if r.Latency <= 0 {
			t.Fatalf("data set %d: non-positive latency %v", i, r.Latency)
		}
	}
	st := s.Close()
	if st.DataSets != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 10 data sets, 0 dropped", st)
	}
}

func TestStreamResolvesFailuresAsErrors(t *testing.T) {
	p := echoPipeline(2, 1)
	p.Retry = RetryPolicy{MaxRetries: 1}
	// Data set 3 fails every attempt at stage 1; everything else flows.
	p.Faults = []Fault{{Stage: 1, Instance: -1, DataSet: 3, Kind: FaultFail}}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var failed, ok int
	for i := 0; i < 8; i++ {
		res, err := s.Push(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if r := <-res; r.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	st := s.Close()
	if failed != 1 || ok != 7 {
		t.Fatalf("failed=%d ok=%d, want 1/7", failed, ok)
	}
	if st.Dropped != 1 || st.Retried == 0 {
		t.Fatalf("stats = %+v, want 1 dropped with retries", st)
	}
}

func TestStreamBackpressureBoundedInbox(t *testing.T) {
	gate := make(chan struct{})
	p := &Pipeline{Stages: []Stage{{
		Name: "slow", Workers: 1, Replicas: 1,
		Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
			<-gate
			return in, nil
		},
	}}}
	s, err := p.Stream(StreamOptions{Inbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One data set occupies the instance, one fills the inbox; the third
	// push must block until its context expires.
	var results []<-chan StreamResult
	for i := 0; i < 2; i++ {
		res, err := s.Push(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := s.Push(ctx, 99); err == nil {
		t.Fatal("push into a full pipeline succeeded, want backpressure block + ctx expiry")
	} else if context.DeadlineExceeded != err {
		t.Fatalf("push error = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("push returned before the context expired — inbox not bounded?")
	}
	close(gate)
	for _, res := range results {
		if r := <-res; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := s.Close(); st.DataSets != 2 {
		t.Fatalf("stats = %+v, want exactly the 2 admitted data sets", st)
	}
}

func TestStreamCloseDrainsZeroLoss(t *testing.T) {
	p := &Pipeline{Stages: []Stage{{
		Name: "slow", Workers: 1, Replicas: 2,
		Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
			time.Sleep(time.Millisecond)
			return in, nil
		},
	}}}
	s, err := p.Stream(StreamOptions{Inbox: 8})
	if err != nil {
		t.Fatal(err)
	}
	var accepted, resolved atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := s.Push(context.Background(), w*100+i)
				if err != nil {
					return // closed mid-loop: expected
				}
				accepted.Add(1)
				go func() {
					<-res
					resolved.Add(1)
				}()
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	st := s.Close()
	wg.Wait()
	// Every accepted push must have resolved by the time Close returned.
	deadline := time.Now().Add(time.Second)
	for resolved.Load() != accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if resolved.Load() != accepted.Load() {
		t.Fatalf("accepted %d but resolved %d — graceful drain lost in-flight work",
			accepted.Load(), resolved.Load())
	}
	if st.DataSets != int(accepted.Load()) {
		t.Fatalf("stats count %d != accepted %d", st.DataSets, accepted.Load())
	}
	if _, err := s.Push(context.Background(), 1); err != ErrStreamClosed {
		t.Fatalf("push after close = %v, want ErrStreamClosed", err)
	}
}

func TestStreamInstanceDeathFailsOver(t *testing.T) {
	p := echoPipeline(1, 2)
	p.Retry = RetryPolicy{MaxRetries: 3}
	p.DeadAfter = 2
	p.Faults = []Fault{{Stage: 0, Instance: 0, DataSet: -1, Kind: FaultFail}}
	// Instance 1 holds its first attempt until the monitor reports instance
	// 0's death, so the faulty instance takes a data set however the
	// scheduler runs the two.
	p.Monitor = live.NewMonitor(live.Config{Stages: []live.StageInfo{{Name: "s0", Replicas: 2}}})
	events, _, cancel := p.Monitor.Events().Subscribe(8)
	defer cancel()
	var hold sync.Once
	p.Stages[0].Run = func(ctx *StageCtx, in DataSet) (DataSet, error) {
		if ctx.Instance == 1 {
			hold.Do(func() {
				// Without a death, go on and fail on the count below.
				timeout := time.After(10 * time.Second)
				for {
					select {
					case ev := <-events:
						if ev.Kind == "death" {
							return
						}
					case <-timeout:
						return
					}
				}
			})
		}
		return in.(int) + 1, nil
	}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Push every data set before waiting on any: instance 1 may hold one
	// until instance 0 has taken another and died.
	results := make([]<-chan StreamResult, 20)
	for i := range results {
		if results[i], err = s.Push(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	for i, res := range results {
		if r := <-res; r.Err != nil {
			t.Fatalf("data set %d lost to a failing instance: %v (survivor should absorb)", i, r.Err)
		}
	}
	st := s.Close()
	if st.Dead != 1 {
		t.Fatalf("stats = %+v, want exactly 1 instance death", st)
	}
}

// TestStreamDeathUnderLoadLosesNothing is the regression test for a dying
// instance dropping its data set when its stage's inbox is full: the
// requeue must wait for a surviving replica, so no data set fails while
// replicas survive.
func TestStreamDeathUnderLoadLosesNothing(t *testing.T) {
	hold := make(chan struct{})  // holds the survivors' first data sets
	fail := make(chan struct{})  // holds instance 1's failing attempt
	started := make(chan int, 8) // one signal per attempt
	p := &Pipeline{
		Stages: []Stage{{Name: "w", Workers: 1, Replicas: 3,
			Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				started <- ctx.Instance
				if ctx.Instance == 1 {
					<-fail
					return nil, fmt.Errorf("instance 1 is broken")
				}
				<-hold
				return in, nil
			}}},
		DeadAfter: 1,
	}
	s, err := p.Stream(StreamOptions{Inbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan StreamResult, 4)
	push := func(i int) {
		res, err := s.Push(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		go func() { results <- <-res }()
	}
	// Every instance takes one data set, then a fourth fills the inbox.
	for i := 0; i < 3; i++ {
		push(i)
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	push(3)
	// Instance 1 fails and dies, requeueing its data set into the full
	// inbox.
	close(fail)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Dead != 1 {
		if time.Now().After(deadline) {
			t.Fatal("instance 1 never died")
		}
		time.Sleep(time.Millisecond)
	}
	// While the survivors are held no data set can complete: a result now
	// means the requeue dropped one.
	select {
	case r := <-results:
		t.Fatalf("a data set resolved while every survivor was held: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	for i := 0; i < 4; i++ {
		if r := <-results; r.Err != nil {
			t.Fatalf("data set lost while replicas survive: %v", r.Err)
		}
	}
	if st := s.Close(); st.Dead != 1 || st.Dropped != 0 || st.DataSets != 4 {
		t.Fatalf("stats = %+v, want 1 death, 0 dropped, 4 data sets", st)
	}
}

func TestStreamConcurrentHammer(t *testing.T) {
	p := echoPipeline(2, 2)
	p.Retry = RetryPolicy{MaxRetries: 1}
	s, err := p.Stream(StreamOptions{Inbox: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var ok atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := s.Push(context.Background(), i)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if r := <-res; r.Err != nil {
					t.Errorf("result: %v", r.Err)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	st := s.Close()
	if ok.Load() != 400 || st.DataSets != 400 {
		t.Fatalf("ok=%d stats=%+v, want 400", ok.Load(), st)
	}
}

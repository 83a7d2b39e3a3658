//go:build linux

package fxrt

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pipemap/internal/model"
)

// median returns the median of ds (which it sorts).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func sleeperRunning() bool {
	timer.mu.Lock()
	defer timer.mu.Unlock()
	return timer.running
}

// waitFor polls cond until it holds, or fails the test once the timer
// goroutine's idle spell and 5 s more have passed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(sleepIdle + 5*time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSleepNeverEarly(t *testing.T) {
	// Each sleep starts as soon as the previous one is submitted and is
	// 15 µs shorter, so later submissions carry earlier deadlines; those
	// arriving while the timer goroutine waits cut its wait short.
	const n = 64
	var wg sync.WaitGroup
	short := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		d := time.Duration(n-i) * 15 * time.Microsecond
		started := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(started)
			t0 := time.Now()
			sleep(d)
			if got := time.Since(t0); got < d {
				short[i] = got
			}
		}()
		<-started
	}
	wg.Wait()
	for i, got := range short {
		if got != 0 {
			t.Errorf("sleep %d of %v returned after %v", i, time.Duration(n-i)*15*time.Microsecond, got)
		}
	}
}

func TestSleepPrecise(t *testing.T) {
	const d = 250 * time.Microsecond
	ds := make([]time.Duration, 200)
	for i := range ds {
		t0 := time.Now()
		sleep(d)
		ds[i] = time.Since(t0)
	}
	if m := median(ds); m >= 2*d {
		t.Errorf("median of %d sleeps of %v = %v, want < %v", len(ds), d, m, 2*d)
	}
}

// stageTimes streams n data sets one at a time through a one-stage
// ModelPipeline whose stage sleeps d, and returns each attempt's time.
func stageTimes(t *testing.T, d time.Duration, n int) []time.Duration {
	t.Helper()
	c := &model.Chain{Tasks: []model.Task{{Name: "s", Exec: model.PolyExec{C1: d.Seconds()}}}}
	p, err := ModelPipeline(model.Mapping{Chain: c, Modules: []model.Module{{Lo: 0, Hi: 1, Procs: 1, Replicas: 1}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ds []time.Duration
	run := p.Stages[0].Run
	p.Stages[0].Run = func(ctx *StageCtx, in DataSet) (DataSet, error) {
		t0 := time.Now()
		out, err := run(ctx, in)
		ds = append(ds, time.Since(t0))
		return out, err
	}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		ch, err := s.Push(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return ds
}

func TestModelPipelineStageTimeIndependentOfLoad(t *testing.T) {
	// time.Sleep's 1 ms floor holds only while the process is idle, so an
	// emulated stage's time used to move with the scheduler's busyness.
	const d = 250 * time.Microsecond
	check := func(load string) {
		if m := median(stageTimes(t, d, 200)); m < d || m >= 2*d {
			t.Errorf("%s: median stage time %v, want in [%v, %v)", load, m, d, 2*d)
		}
	}
	check("idle")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	ping, pong := make(chan int), make(chan int)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case ping <- i:
				<-pong
			case <-stop:
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case i := <-ping:
				pong <- i
			case <-stop:
				return
			}
		}
	}()
	check("beside a channel ping-pong")
	close(stop)
	wg.Wait()
}

func TestSleeperExitsWhenIdle(t *testing.T) {
	waitFor(t, "an earlier test's timer goroutine to exit", func() bool { return !sleeperRunning() })
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sleep(100 * time.Microsecond)
		}()
	}
	wg.Wait()
	if !sleeperRunning() {
		t.Fatal("timer goroutine gone before its idle spell")
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

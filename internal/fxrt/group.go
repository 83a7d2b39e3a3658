// Package fxrt is a small goroutine-based task and data parallel runtime
// in the spirit of the paper's Fx compiler target: a pipeline of data
// parallel tasks runs on disjoint groups of workers ("processors"), with
// the replicas of a module sharing its data sets round-robin and bounded
// handoff queues between pipeline stages. A transfer runs on the receiving
// instance only; package sim keeps the paper's model, in which sender and
// receiver are both occupied by it.
//
// The runtime executes real kernels (package kernels) and measures real
// wall-clock behaviour, so it can profile an application for the model
// fitting in package estimate, and validate predicted mappings end to end.
// ModelPipeline instead emulates a mapping, each stage sleeping its
// modelled response time; on Linux those sleeps go through one precise
// timer thread (sleep_linux.go) rather than time.Sleep.
package fxrt

import (
	"fmt"
	"sync"
)

// Group is a fixed pool of worker goroutines standing in for a set of
// processors assigned to one module instance.
type Group struct {
	workers int
	jobs    chan func()
	wg      sync.WaitGroup
	closed  bool
}

// NewGroup starts a pool of n workers (n >= 1).
func NewGroup(n int) (*Group, error) {
	if n < 1 {
		return nil, fmt.Errorf("fxrt: group needs at least 1 worker, got %d", n)
	}
	g := &Group{workers: n, jobs: make(chan func())}
	g.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer g.wg.Done()
			for job := range g.jobs {
				job()
			}
		}()
	}
	return g, nil
}

// Workers returns the number of workers in the group.
func (g *Group) Workers() int { return g.workers }

// ParallelFor partitions [0, total) into one contiguous block per worker
// and runs body on each block concurrently, returning when all blocks
// complete. The first error (if any) is returned.
func (g *Group) ParallelFor(total int, body func(lo, hi int) error) error {
	if total <= 0 {
		return nil
	}
	n := g.workers
	if n > total {
		n = total
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	chunk := (total + n - 1) / n
	for w := 0; w < n; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		w := w
		g.jobs <- func() {
			defer wg.Done()
			errs[w] = body(lo, hi)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the pool down and waits for the workers to exit. A closed
// group must not be used again.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.jobs)
	g.wg.Wait()
}

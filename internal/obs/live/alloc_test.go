package live

import (
	"testing"
	"time"
)

// Same contract as package obs: disabled (nil) instruments must cost
// nothing on hot paths — and the enabled ingestion hot path (stage
// completions streaming through a pipeline) must itself be allocation-free,
// since it runs once per data set × stage × attempt.

func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var m *Monitor
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(1.5)
		h.Observe(0.01)
		m.StageDone(0, 0.01)
		m.StageRetry(0, 1)
		m.StageTimeout(0, 1)
		m.StageDrop(0, 1)
		m.InstanceDeath(0, 1)
		m.Completed(0.5)
		_ = r.Counter("x")
		_ = r.Gauge("x")
		_ = r.Histogram("x")
	})
	if allocs != 0 {
		t.Errorf("disabled instruments allocated %.1f times per op, want 0", allocs)
	}
}

// TestDisabledRegistryAllocatesNothing pins the solvers' contract: they
// record through a possibly-nil registry with no nil check, fetching the
// instrument by name on every call, and a nil registry must cost no
// allocation there.
func TestDisabledRegistryAllocatesNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("dp.map_chain.states").Add(17)
		r.Counter("dp.map_chain.layers").Inc()
		r.Gauge("adapt.generation").Set(1.5)
		r.Histogram("core.map_seconds").Observe(0.01)
	})
	if allocs != 0 {
		t.Errorf("disabled registry allocated %.1f times per op, want 0", allocs)
	}
}

func TestEnabledHotPathAllocatesNothing(t *testing.T) {
	r := NewRegistry(Options{})
	c := r.Counter("hot.count")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.lat")
	m := NewMonitor(Config{Stages: []StageInfo{{Name: "s", Replicas: 2}}})
	m.Start()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2.5)
		h.Observe(0.01)
		m.StageDone(0, 0.01)
		m.Completed(0.5)
	})
	if allocs != 0 {
		t.Errorf("enabled ingestion allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkStageDoneEnabled(b *testing.B) {
	m := NewMonitor(Config{Stages: []StageInfo{{Name: "s", Replicas: 2}}})
	m.Start()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StageDone(0, 0.01)
	}
}

func BenchmarkStageDoneDisabled(b *testing.B) {
	var m *Monitor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StageDone(0, 0.01)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry(Options{Window: time.Second}).Histogram("bench.lat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.001)
	}
}

package live

import (
	"sync"
	"testing"
	"time"
)

// regClock returns a registry on a virtual clock with a 16-second window
// (one second per counter slot, two per histogram slot).
func regClock() (*Registry, *VirtualClock) {
	vc := NewVirtualClock()
	return NewRegistry(Options{Window: 16 * time.Second, Clock: vc.Clock()}), vc
}

func TestCounterWindowAndRate(t *testing.T) {
	r, vc := regClock()
	c := r.Counter("test.events")
	vc.SetSeconds(1)
	c.Add(5)
	vc.SetSeconds(2)
	c.Inc()
	if got := c.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	if got := c.WindowSum(); got != 6 {
		t.Fatalf("WindowSum = %d, want 6", got)
	}
	// Rate before a full window divides by elapsed-since-creation (2s), not
	// the window length, so early rates are not diluted.
	if got := c.Rate(); got != 3 {
		t.Fatalf("early Rate = %g, want 6/2s = 3", got)
	}
	// Far past the window: the total persists, the window drains.
	vc.SetSeconds(100)
	if got := c.Total(); got != 6 {
		t.Fatalf("Total after expiry = %d, want 6", got)
	}
	if got := c.WindowSum(); got != 0 {
		t.Fatalf("WindowSum after expiry = %d, want 0", got)
	}
	if got := c.Rate(); got != 0 {
		t.Fatalf("Rate after expiry = %g, want 0", got)
	}
	// New activity reuses expired slots.
	c.Add(2)
	if got := c.WindowSum(); got != 2 {
		t.Fatalf("WindowSum after reuse = %d, want 2", got)
	}
}

func TestCounterRateRightAfterCreation(t *testing.T) {
	// A one-shot report reads its counters microseconds after creating
	// them; the rate divides by at least one slot (1s here), not by those
	// microseconds.
	r, vc := regClock()
	c := r.Counter("test.oneshot")
	c.Add(3)
	vc.Advance(80 * time.Microsecond)
	if got := c.Rate(); got != 3 {
		t.Fatalf("Rate 80us after creation = %g, want 3 events / 1s slot = 3", got)
	}
	vc.SetSeconds(1.5)
	if got := c.Rate(); got != 2 {
		t.Fatalf("Rate 1.5s after creation = %g, want 3 events / 1.5s = 2", got)
	}
}

func TestCounterPartialExpiry(t *testing.T) {
	r, vc := regClock()
	c := r.Counter("test.partial")
	vc.SetSeconds(1)
	c.Add(10)
	vc.SetSeconds(12)
	c.Add(3)
	if got := c.WindowSum(); got != 13 {
		t.Fatalf("WindowSum mid-window = %d, want 13", got)
	}
	// At t=20 the slot written at t=1 (epoch 1) is outside [5, 20] (16
	// slots of 1s ending at epoch 20), the t=12 slot is inside.
	vc.SetSeconds(20)
	if got := c.WindowSum(); got != 3 {
		t.Fatalf("WindowSum after partial expiry = %d, want 3", got)
	}
}

func TestGauge(t *testing.T) {
	r, _ := regClock()
	g := r.Gauge("test.depth")
	if got := g.Value(); got != 0 {
		t.Fatalf("unset gauge = %g, want 0", got)
	}
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g, want -1", got)
	}
}

func TestHistogramWindow(t *testing.T) {
	r, vc := regClock()
	h := r.Histogram("test.latency")
	vc.SetSeconds(1)
	h.Observe(0.010)
	h.Observe(0.020)
	vc.SetSeconds(2)
	h.Observe(0.030)
	st := h.Window()
	if st.Count != 3 {
		t.Fatalf("Count = %d, want 3", st.Count)
	}
	if st.Min != 0.010 || st.Max != 0.030 {
		t.Fatalf("Min/Max = %g/%g, want 0.01/0.03", st.Min, st.Max)
	}
	if got, want := st.Mean, 0.020; got < want*0.999 || got > want*1.001 {
		t.Fatalf("Mean = %g, want %g", got, want)
	}
	for _, q := range []float64{st.P50, st.P90, st.P99} {
		if q < st.Min || q > st.Max {
			t.Fatalf("quantile %g outside [min=%g, max=%g]", q, st.Min, st.Max)
		}
	}
	count, sum := h.Total()
	if count != 3 || sum < 0.0599 || sum > 0.0601 {
		t.Fatalf("Total = (%d, %g), want (3, 0.06)", count, sum)
	}

	// Expiry: the window drains, cumulative totals persist.
	vc.SetSeconds(200)
	if st := h.Window(); st.Count != 0 {
		t.Fatalf("Count after expiry = %d, want 0", st.Count)
	}
	if count, _ := h.Total(); count != 3 {
		t.Fatalf("Total after expiry = %d, want 3", count)
	}
	// A stale slot is fully reset on reuse, not merged with old buckets.
	h.Observe(1.0)
	st = h.Window()
	if st.Count != 1 || st.Min != 1.0 || st.Max != 1.0 {
		t.Fatalf("after reuse: %+v, want single sample 1.0", st)
	}
}

func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Add(1)
	c.Inc()
	if c.Total() != 0 || c.WindowSum() != 0 || c.Rate() != 0 {
		t.Fatal("nil counter not zero")
	}
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge not zero")
	}
	h.Observe(1)
	if st := h.Window(); st.Count != 0 {
		t.Fatal("nil histogram not empty")
	}
	if n, s := h.Total(); n != 0 || s != 0 {
		t.Fatal("nil histogram total not zero")
	}
	if r.Enabled() {
		t.Fatal("nil registry enabled")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	r, _ := regClock()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter handle not stable")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("gauge handle not stable")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("histogram handle not stable")
	}
	r.Counter("a").Add(2)
	r.Gauge("b").Set(7)
	r.Histogram("c").Observe(0.5)
	s := r.Snapshot()
	if s.Counters["a"].Total != 2 {
		t.Fatalf("snapshot counter = %+v, want total 2", s.Counters["a"])
	}
	if s.Gauges["b"] != 7 {
		t.Fatalf("snapshot gauge = %g, want 7", s.Gauges["b"])
	}
	if s.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot histogram = %+v, want count 1", s.Histograms["c"])
	}
}

// TestInstrumentsConcurrent hammers the instruments from writer goroutines
// while readers scrape, for the race detector.
func TestInstrumentsConcurrent(t *testing.T) {
	r := NewRegistry(Options{Window: 50 * time.Millisecond})
	mon := NewMonitor(Config{Stages: []StageInfo{
		{Name: "a", Replicas: 2}, {Name: "b", Replicas: 1},
	}})
	mon.Start()
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers scrape continuously until the writers finish.
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Snapshot()
				_ = mon.Health()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer.count")
			h := r.Histogram("hammer.lat")
			g := r.Gauge("hammer.gauge")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i%10) * 0.001)
				g.Set(float64(i))
				mon.StageDone(i%2, 0.001)
				if i%500 == 0 {
					mon.StageRetry(i%2, i)
				}
			}
		}(w)
	}
	// Wait for the writers only, then stop the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers all call wg.Done; readers exit on stop. Close stop once the
	// counter shows all writes landed.
	deadline := time.After(10 * time.Second)
	for r.Counter("hammer.count").Total() < writers*perWriter {
		select {
		case <-deadline:
			t.Fatal("writers did not finish in time")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	if got := r.Counter("hammer.count").Total(); got != writers*perWriter {
		t.Fatalf("lost updates: %d, want %d", got, writers*perWriter)
	}
	h := mon.Health()
	var stageDone int64
	for _, sh := range h.Stages {
		stageDone += sh.Completed
	}
	if stageDone != writers*perWriter {
		t.Fatalf("monitor lost updates: %d, want %d", stageDone, writers*perWriter)
	}
}

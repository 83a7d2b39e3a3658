package live

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBounds(t *testing.T) {
	for _, v := range []float64{1e-10, 1e-9, 1e-6, 0.001, 1, 100, 1e6} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%g) = %d out of range", v, i)
		}
		if i > histUnderflowIdx && i < histBuckets-1 && bucketUpper(i) < v*0.999 {
			t.Errorf("bucketUpper(%d)=%g below sample %g", i, bucketUpper(i), v)
		}
	}
	for _, v := range []float64{0, -1, math.NaN()} {
		if bucketOf(v) != histUnderflowIdx {
			t.Errorf("bucketOf(%g) = %d, want the underflow bucket", v, bucketOf(v))
		}
	}
	if bucketOf(math.Inf(1)) != histBuckets-1 {
		t.Error("+Inf must land in the overflow bucket")
	}
}

// Regression: values above the top finite bucket land in the overflow
// bucket, whose upper bound is +Inf. Quantiles that resolve there must
// report the observed max, not the last finite bucket boundary (which
// could understate the value by orders of magnitude).
func TestQuantileOverflowBucketReportsObservedMax(t *testing.T) {
	huge := bucketUpper(histBuckets-2) * 100
	r, _ := regClock()
	h := r.Histogram("h")
	h.Observe(huge)
	s := h.Window()
	for q, got := range map[string]float64{"p50": s.P50, "p90": s.P90, "p99": s.P99} {
		if got != huge {
			t.Errorf("%s = %g, want observed max %g (overflow bucket must clamp to +Inf semantics)", q, got, huge)
		}
	}
}

func TestQuantileMixedOverflow(t *testing.T) {
	r, _ := regClock()
	h := r.Histogram("h")
	// 98 small samples and two huge outliers: the median stays small, and
	// the p99 rank lands in the overflow bucket, so it reports the outlier.
	huge := bucketUpper(histBuckets-2) * 1e3
	for i := 0; i < 98; i++ {
		h.Observe(1.0)
	}
	h.Observe(huge)
	h.Observe(huge)
	s := h.Window()
	if s.P50 > 2 {
		t.Errorf("p50 = %g, want ~1 (outliers must not drag the median)", s.P50)
	}
	if s.P99 != huge || s.Max != huge {
		t.Errorf("p99 = %g, max = %g, want observed max %g", s.P99, s.Max, huge)
	}
	var b [histBuckets]int64
	b[bucketOf(1.0)], b[bucketOf(huge)] = 99, 1
	if got := quantileFromBuckets(b[:], 100, 1.0, 1.0, huge); got != huge {
		t.Errorf("q=1.0 = %g, want observed max %g", got, huge)
	}
}

func TestQuantileFromBucketsEmpty(t *testing.T) {
	var b [histBuckets]int64
	if got := quantileFromBuckets(b[:], 0, 0.5, 0, 0); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestConcurrentRegistry records through name lookups from many goroutines
// — the way concurrent solves share one registry — with concurrent
// snapshots and scrapes.
func TestConcurrentRegistry(t *testing.T) {
	const goroutines = 16
	const perG = 500
	r := NewRegistry(Options{Window: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("ops").Inc()
				r.Counter("states").Add(3)
				r.Gauge("gauge").Set(float64(i))
				r.Histogram("lat").Observe(float64(i%100) * 1e-3)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
			var b strings.Builder
			if err := WriteProm(&b, nil, r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["ops"].Total != goroutines*perG {
		t.Errorf("ops = %d, want %d", s.Counters["ops"].Total, goroutines*perG)
	}
	if s.Counters["states"].Total != 3*goroutines*perG {
		t.Errorf("states = %d, want %d", s.Counters["states"].Total, 3*goroutines*perG)
	}
	if n, _ := r.Histogram("lat").Total(); n != goroutines*perG {
		t.Errorf("lat count = %d, want %d", n, goroutines*perG)
	}
}

// TestPromSummaryCountsAreCumulative pins the exposition's summary
// semantics: _count and _sum are lifetime totals, so they stay put after
// the samples leave the rolling window, for plain and labeled histograms
// alike; only the quantiles are windowed.
func TestPromSummaryCountsAreCumulative(t *testing.T) {
	vc := NewVirtualClock()
	r := NewRegistry(Options{Window: 30 * time.Second, Clock: vc.Clock()})
	vc.SetSeconds(1)
	r.Histogram("core.map_seconds").Observe(0.25)
	r.HistogramVec("ingest.tenant.sojourn_ms", "tenant").With("a").Observe(4)
	h := NewServer(ServerOptions{Registry: r}).Handler()
	for _, at := range []float64{1, 100} {
		vc.SetSeconds(at)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		body := rec.Body.String()
		lintProm(t, body)
		for _, want := range []string{
			"core_map_seconds_count 1\n",
			"core_map_seconds_sum 0.25\n",
			`ingest_tenant_sojourn_ms_count{tenant="a"} 1` + "\n",
			`ingest_tenant_sojourn_ms_sum{tenant="a"} 4` + "\n",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("t=%gs: exposition missing %q:\n%s", at, want, body)
			}
		}
	}
	// The window itself has emptied: quantiles read 0 at t=100s.
	if st := r.Histogram("core.map_seconds").Window(); st.Count != 0 || st.P99 != 0 {
		t.Errorf("window at t=100s = %+v, want empty", st)
	}
}

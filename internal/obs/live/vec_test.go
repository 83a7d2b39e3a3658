package live

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSanitizeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "_"},
		{"tenant-a", "tenant-a"},
		{"a.b:c/d_e-9", "a.b:c/d_e-9"},
		{`evil"quote`, "evil_quote"},
		{"brace{injection}", "brace_injection_"},
		{"new\nline", "new_line"},
		{`back\slash`, "back_slash"},
		{"spaced out", "spaced_out"},
		{"ünïcode", "__n__code"},
		{strings.Repeat("x", 100), strings.Repeat("x", vecMaxValueLen)},
	}
	for _, c := range cases {
		if got := sanitizeLabelValue(c.in); got != c.want {
			t.Errorf("sanitizeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestHostileLabelValuesSurvivePromLint drives adversarial tenant names
// through every vec kind and asserts the rendered exposition still passes
// the same lint the serve smoke test applies: sanitization at With() time
// is what guarantees a client cannot corrupt /metrics.
func TestHostileLabelValuesSurvivePromLint(t *testing.T) {
	r, vc := regClock()
	vc.SetSeconds(1)
	hostile := []string{
		`quote"breaker`,
		"brace{hi=\"1\"}",
		"multi\nline\r",
		`trailing\`,
		strings.Repeat("long", 50),
		"",
		"ok-tenant",
	}
	cv := r.CounterVec("ingest.tenant.admit", "tenant")
	gv := r.GaugeVec("ingest.tenant.queue_depth", "tenant")
	hv := r.HistogramVec("ingest.tenant.sojourn_ms", "tenant")
	for _, name := range hostile {
		cv.With(name).Inc()
		gv.With(name).Set(2)
		hv.With(name).ObserveExemplar(3.5, "0123456789abcdef0123456789abcdef")
	}
	var buf strings.Builder
	if err := WriteProm(&buf, nil, r); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	typed := lintProm(t, buf.String())
	for _, fam := range []string{
		"ingest_tenant_admit_total",
		"ingest_tenant_queue_depth",
		"ingest_tenant_sojourn_ms",
	} {
		if _, ok := typed[fam]; !ok {
			t.Errorf("family %s missing from exposition (typed: %v)", fam, typed)
		}
	}
	if body := buf.String(); strings.Contains(body, `quote"breaker`) {
		t.Error("raw hostile label value leaked into exposition")
	}
}

func TestVecOverflowFoldsPastCap(t *testing.T) {
	r, _ := regClock()
	cv := r.CounterVec("overflow.test", "tenant")
	for i := 0; i < vecMaxValues+40; i++ {
		cv.With(fmt.Sprintf("tenant-%d", i)).Inc()
	}
	snap := r.Snapshot().CounterVecs["overflow.test"]
	if snap.LabelKey != "tenant" {
		t.Errorf("label key = %q, want tenant", snap.LabelKey)
	}
	if len(snap.Series) != vecMaxValues+1 {
		t.Errorf("series count = %d, want %d (cap plus overflow)", len(snap.Series), vecMaxValues+1)
	}
	var overflow int64 = -1
	for _, s := range snap.Series {
		if s.Label == vecOverflowValue {
			overflow = s.Value.Total
		}
	}
	if overflow != 40 {
		t.Errorf("overflow series total = %d, want the 40 folded tenants", overflow)
	}
	// Existing values keep resolving to their own series after the fold.
	cv.With("tenant-0").Inc()
	if got := cv.With("tenant-0").Total(); got != 2 {
		t.Errorf("tenant-0 total = %d, want 2", got)
	}
}

func TestHistogramExemplarTracksP99Bucket(t *testing.T) {
	r, vc := regClock()
	vc.SetSeconds(1)
	h := r.Histogram("exemplar.lat")
	for i := 0; i < 50; i++ {
		h.ObserveExemplar(0.5, "trace-fast")
	}
	for i := 0; i < 5; i++ {
		h.ObserveExemplar(400, "trace-slow")
	}
	st := h.Window()
	if st.Count != 55 {
		t.Fatalf("window count = %d, want 55", st.Count)
	}
	if st.P99Exemplar != "trace-slow" {
		t.Errorf("P99Exemplar = %q, want the slow request's trace ID", st.P99Exemplar)
	}
	// Plain Observe must not erase a recorded exemplar with an empty one.
	h.Observe(400)
	if st := h.Window(); st.P99Exemplar != "trace-slow" {
		t.Errorf("P99Exemplar after plain Observe = %q, want trace-slow", st.P99Exemplar)
	}
}

func TestNilVecsAllocateNothing(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		cv.With("tenant").Inc()
		gv.With("tenant").Set(1)
		hv.With("tenant").ObserveExemplar(1, "id")
		_ = cv.Label()
		_ = r.CounterVec("x", "l")
		_ = r.GaugeVec("x", "l")
		_ = r.HistogramVec("x", "l")
	})
	if allocs != 0 {
		t.Errorf("disabled vecs allocated %.1f times per op, want 0", allocs)
	}
}

func TestVecWithOnCleanExistingValueAllocatesNothing(t *testing.T) {
	r := NewRegistry(Options{Window: time.Second})
	cv := r.CounterVec("hot.vec", "tenant")
	cv.With("tenant-a").Inc()
	allocs := testing.AllocsPerRun(1000, func() {
		cv.With("tenant-a").Inc()
	})
	if allocs != 0 {
		t.Errorf("hot-path With on existing clean label allocated %.1f times per op, want 0", allocs)
	}
}

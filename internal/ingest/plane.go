package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/obs/slo"
)

// Config configures a Plane.
type Config struct {
	// Queue configures the bounded multi-tenant admission queue.
	Queue QueueConfig
	// Dispatchers is the number of concurrent dispatch loops feeding the
	// pipeline stream (default 4). It bounds pipeline concurrency from the
	// ingest side.
	Dispatchers int
	// DefaultBudget is the deadline budget applied when a request names
	// none (default 2s). A request whose queue sojourn — predicted at
	// admission or actual at dispatch — exceeds its budget is shed.
	DefaultBudget time.Duration
	// LivenessFloor opens the circuit breaker when any stage's live/replica
	// fraction falls below it (e.g. 0.5). <= 0 disables the breaker.
	LivenessFloor float64
	// BreakerProbe is how often the breaker re-reads pipeline health
	// (default 100ms); between probes the cached verdict is used.
	BreakerProbe time.Duration
	// Registry receives the plane's metrics; nil disables them.
	Registry *live.Registry
	// Tracer, when set, samples request-scoped traces through admission,
	// queue wait, the pipeline stages, and completion (DESIGN.md §13). Nil
	// disables tracing with zero hot-path cost.
	Tracer *obs.ReqTracer
	// SLO, when set, receives one outcome record per terminal request
	// (served, shed, or failed) for objective evaluation. Nil disables.
	SLO *slo.Engine
}

func (c Config) withDefaults() Config {
	if c.Dispatchers <= 0 {
		c.Dispatchers = 4
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.BreakerProbe <= 0 {
		c.BreakerProbe = 100 * time.Millisecond
	}
	return c
}

// Backend is the pipeline engine behind the plane: anything that accepts
// data sets one at a time, resolves each to a StreamResult, and drains on
// Close. *fxrt.Stream is the engine New builds; the interface lets a
// caller wrap a stream (for example, to time each push) and hand it to
// NewBackend behind the identical admission/shedding/drain machinery.
type Backend interface {
	// PushTraced submits one data set, recording stage spans on rt (nil
	// for untraced). It blocks on backpressure until ctx is done and
	// returns ErrStreamClosed once draining has begun.
	PushTraced(ctx context.Context, ds fxrt.DataSet, rt *obs.ReqTrace) (<-chan fxrt.StreamResult, error)
	// InFlight reports pushed-but-unresolved data sets.
	InFlight() int
	// Close drains in-flight work to zero, tears the engine down, and
	// returns its cumulative statistics.
	Close() fxrt.Stats
}

// backend pairs a pipeline engine with the monitor observing it, so a live
// swap replaces both atomically.
type backend struct {
	s   Backend
	mon *live.Monitor
}

// Plane is the ingestion data plane: a bounded admission queue in front of
// a real pipeline stream, with load shedding, fairness, circuit breaking,
// and graceful drain. See the package documentation for the design.
type Plane struct {
	cfg   Config
	queue *Queue
	be    atomic.Pointer[backend]

	dispWg    sync.WaitGroup
	draining  atomic.Bool
	drainOnce sync.Once
	drainRes  DrainStats

	admitted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	dispatch  atomic.Int64 // currently dispatching
	shedBy    map[ShedReason]*atomic.Int64

	ewmaMu sync.Mutex
	ewma   float64 // seconds per request through the pipeline

	brMu   sync.Mutex
	brOpen bool
	brLast time.Time

	// metric instruments (nil-safe when Registry is nil)
	cAdmit, cShed, cDone, cFail *live.Counter
	cShedReason                 map[ShedReason]*live.Counter
	hSojourn, hService          *live.Histogram
	gDepth, gInflight           *live.Gauge

	// per-tenant families (nil-safe when Registry is nil)
	cvAdmit, cvShed *live.CounterVec
	hvSojourn       *live.HistogramVec
	gvQueueDepth    *live.GaugeVec
	gvQueueHigh     *live.GaugeVec
}

// New builds the plane around a started stream of pl and launches its
// dispatchers. The pipeline's Monitor (pl.Monitor) feeds the circuit
// breaker and is marked draining during Drain.
func New(cfg Config, pl *fxrt.Pipeline, opts fxrt.StreamOptions) (*Plane, error) {
	s, err := pl.Stream(opts)
	if err != nil {
		return nil, err
	}
	return NewBackend(cfg, s, pl.Monitor)
}

// NewBackend builds the plane around an already-running backend, such as
// a stream wrapped by the caller. mon is the monitor observing the backend
// (it feeds the circuit breaker and is marked draining during Drain); a
// nil monitor disables the breaker.
func NewBackend(cfg Config, be Backend, mon *live.Monitor) (*Plane, error) {
	if be == nil {
		return nil, fmt.Errorf("ingest: nil backend")
	}
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:         cfg,
		queue:       NewQueue(cfg.Queue),
		shedBy:      map[ShedReason]*atomic.Int64{},
		cShedReason: map[ShedReason]*live.Counter{},
	}
	p.be.Store(&backend{s: be, mon: mon})
	reg := cfg.Registry
	p.cAdmit = reg.Counter("ingest.admit")
	p.cShed = reg.Counter("ingest.shed")
	p.cDone = reg.Counter("ingest.complete")
	p.cFail = reg.Counter("ingest.fail")
	p.hSojourn = reg.Histogram("ingest.sojourn_ms")
	p.hService = reg.Histogram("ingest.service_ms")
	p.gDepth = reg.Gauge("ingest.queue_depth")
	p.gInflight = reg.Gauge("ingest.inflight")
	for _, r := range shedReasons {
		p.shedBy[r] = &atomic.Int64{}
		p.cShedReason[r] = reg.Counter("ingest.shed." + string(r))
	}
	p.cvAdmit = reg.CounterVec("ingest.tenant.admit", "tenant")
	p.cvShed = reg.CounterVec("ingest.tenant.shed", "tenant")
	p.hvSojourn = reg.HistogramVec("ingest.tenant.sojourn_ms", "tenant")
	p.gvQueueDepth = reg.GaugeVec("ingest.tenant.queue_depth", "tenant")
	p.gvQueueHigh = reg.GaugeVec("ingest.tenant.queue_high_water", "tenant")
	for i := 0; i < cfg.Dispatchers; i++ {
		p.dispWg.Add(1)
		go p.dispatcher()
	}
	return p, nil
}

// shed records a shed decision — aggregate and per-tenant counters, the
// SLO engine, the flight recorder, and (when sampled) the request trace —
// and returns it as the error to surface.
func (p *Plane) shed(id obs.TraceID, tenant string, rt *obs.ReqTrace, e *ShedError) *ShedError {
	p.shedBy[e.Reason].Add(1)
	p.cShed.Inc()
	p.cShedReason[e.Reason].Inc()
	p.cvShed.With(tenant).Inc()
	p.cfg.SLO.Record(tenant, false, 0)
	rt.Instant(obs.SpanShed, string(e.Reason), e.Detail)
	p.cfg.Tracer.RecordShed(id, tenant, string(e.Reason), e.Detail)
	return e
}

// Submit admits one decoded data set for tenant and blocks until its
// outcome: the pipeline's output, a structured *ShedError (at admission or
// at dispatch), or ctx's error if the caller gives up first. budget <= 0
// uses the configured default. When the plane has a tracer, Submit starts
// (and finishes) a head-sampled trace itself; callers that already own a
// trace — the HTTP handler accepting a traceparent — use SubmitTraced.
func (p *Plane) Submit(ctx context.Context, tenant string, ds fxrt.DataSet, budget time.Duration) (Outcome, error) {
	tr := p.cfg.Tracer
	if tr == nil {
		return p.SubmitTraced(ctx, tenant, ds, budget, obs.TraceID{}, nil)
	}
	if tenant == "" {
		tenant = "default"
	}
	id, rt := tr.Start(obs.TraceID{}, false, tenant, time.Now())
	out, err := p.SubmitTraced(ctx, tenant, ds, budget, id, rt)
	if rt != nil {
		outcome := "ok"
		switch {
		case err != nil:
			outcome = "shed"
			if _, ok := err.(*ShedError); !ok {
				outcome = "error"
			}
		case out.Err != nil:
			outcome = "error"
		}
		tr.Finish(rt, outcome, out.Sojourn, out.Service)
	}
	return out, err
}

// Tracer returns the plane's request tracer (nil when tracing is off).
func (p *Plane) Tracer() *obs.ReqTracer { return p.cfg.Tracer }

// SLO returns the plane's SLO engine (nil when disabled).
func (p *Plane) SLO() *slo.Engine { return p.cfg.SLO }

// SubmitTraced is Submit under a caller-owned trace: id is the request's
// trace ID (zero for untraced) and rt the sampled trace to record spans on
// (nil when unsampled). The caller finishes rt; the plane only records
// admission, queue, stage, and shed spans onto it.
func (p *Plane) SubmitTraced(ctx context.Context, tenant string, ds fxrt.DataSet, budget time.Duration, id obs.TraceID, rt *obs.ReqTrace) (Outcome, error) {
	if tenant == "" {
		tenant = "default"
	}
	if budget <= 0 {
		budget = p.cfg.DefaultBudget
	}
	t0 := time.Now()
	if p.draining.Load() {
		return Outcome{}, p.shed(id, tenant, rt, &ShedError{Reason: ReasonDraining, Detail: "plane draining for shutdown"})
	}
	if p.breakerOpen() {
		return Outcome{}, p.shed(id, tenant, rt, &ShedError{
			Reason:     ReasonCircuitOpen,
			Detail:     fmt.Sprintf("stage liveness below floor %.2f", p.cfg.LivenessFloor),
			RetryAfter: p.cfg.BreakerProbe,
		})
	}
	// Early rejection: if the predicted queue wait alone already blows the
	// budget, a late answer is the only possible answer — shed now.
	if w := p.predictedWait(); w > budget {
		return Outcome{}, p.shed(id, tenant, rt, &ShedError{
			Reason:     ReasonDeadline,
			Detail:     fmt.Sprintf("predicted queue wait %v exceeds budget %v", w.Round(time.Millisecond), budget),
			RetryAfter: w - budget,
		})
	}
	it := &Item{
		Tenant:   tenant,
		Payload:  ds,
		Budget:   budget,
		Enqueued: time.Now(),
		out:      make(chan Outcome, 1),
		canceled: make(chan struct{}),
		rt:       rt,
	}
	if rt != nil {
		it.idStr = id.String()
	}
	if err := p.queue.Offer(it); err != nil {
		if se, ok := err.(*ShedError); ok {
			return Outcome{}, p.shed(id, tenant, rt, se)
		}
		return Outcome{}, err
	}
	p.admitted.Add(1)
	p.cAdmit.Inc()
	p.cvAdmit.With(tenant).Inc()
	p.gDepth.Set(float64(p.queue.Len()))
	rt.Span(obs.SpanAdmission, "admit", t0, time.Since(t0), "ok", "")
	select {
	case out := <-it.out:
		return out, nil
	case <-ctx.Done():
		it.Cancel()
		rt.Instant(obs.SpanResponse, "canceled", "submitter gave up")
		return Outcome{}, ctx.Err()
	}
}

// predictedWait estimates the queue wait a newly admitted request would
// see: the EWMA per-request service time times the backlog share each
// dispatcher carries. Zero until the first request completes.
func (p *Plane) predictedWait() time.Duration {
	p.ewmaMu.Lock()
	ewma := p.ewma
	p.ewmaMu.Unlock()
	if ewma <= 0 {
		return 0
	}
	backlog := p.queue.Len() + 1
	perDispatcher := float64(backlog) / float64(p.cfg.Dispatchers)
	return time.Duration(perDispatcher * ewma * float64(time.Second))
}

// observeService folds one completed request's pipeline time into the EWMA.
func (p *Plane) observeService(d time.Duration) {
	const alpha = 0.2
	p.ewmaMu.Lock()
	if p.ewma <= 0 {
		p.ewma = d.Seconds()
	} else {
		p.ewma = (1-alpha)*p.ewma + alpha*d.Seconds()
	}
	p.ewmaMu.Unlock()
}

// breakerOpen reports whether any stage's liveness is below the floor,
// probing pipeline health at most once per BreakerProbe.
func (p *Plane) breakerOpen() bool {
	if p.cfg.LivenessFloor <= 0 {
		return false
	}
	p.brMu.Lock()
	defer p.brMu.Unlock()
	now := time.Now()
	if !p.brLast.IsZero() && now.Sub(p.brLast) < p.cfg.BreakerProbe {
		return p.brOpen
	}
	p.brLast = now
	h := p.be.Load().mon.Health()
	open := false
	for _, st := range h.Stages {
		if st.Replicas > 0 && float64(st.Live)/float64(st.Replicas) < p.cfg.LivenessFloor {
			open = true
			break
		}
	}
	p.brOpen = open
	return open
}

// dispatcher pops admitted items and runs them through the pipeline
// stream, re-checking each item's deadline at the head of the line.
func (p *Plane) dispatcher() {
	defer p.dispWg.Done()
	for {
		it, err := p.queue.Pop(nil)
		if err != nil {
			return // queue closed and flushed
		}
		p.gDepth.Set(float64(p.queue.Len()))
		p.serve(it)
	}
}

// serve runs one item: head-of-line deadline check, push into the stream
// (retrying once across a live swap), and outcome delivery.
func (p *Plane) serve(it *Item) {
	if it.Canceled() {
		p.canceled.Add(1)
		return
	}
	sojourn := time.Since(it.Enqueued)
	sojournMS := float64(sojourn) / float64(time.Millisecond)
	p.hSojourn.ObserveExemplar(sojournMS, it.idStr)
	p.hvSojourn.With(it.Tenant).ObserveExemplar(sojournMS, it.idStr)
	it.rt.Span(obs.SpanQueue, "queue", it.Enqueued, sojourn, "ok", "")
	// Head-of-line drop: the sojourn already spent the budget, so serving
	// this request can only produce a late answer — shed it and move to
	// fresher work (CoDel-style head drop under standing queues).
	if it.Budget > 0 && sojourn > it.Budget {
		e := p.shed(it.rt.ID(), it.Tenant, it.rt, &ShedError{
			Reason: ReasonDeadline,
			Detail: fmt.Sprintf("queue sojourn %v exceeded budget %v", sojourn.Round(time.Millisecond), it.Budget),
		})
		it.out <- Outcome{Err: e, Sojourn: sojourn}
		return
	}
	p.dispatch.Add(1)
	p.gInflight.Set(float64(p.dispatch.Load()))
	defer func() {
		p.dispatch.Add(-1)
		p.gInflight.Set(float64(p.dispatch.Load()))
	}()
	var r fxrt.StreamResult
	tPush := time.Now()
	for attempt := 0; ; attempt++ {
		be := p.be.Load()
		res, err := be.s.PushTraced(nil, it.Payload, it.rt)
		if err == fxrt.ErrStreamClosed && attempt == 0 {
			continue // a live swap replaced the backend; retry on the new one
		}
		if err != nil {
			p.failed.Add(1)
			p.cFail.Inc()
			p.cfg.SLO.Record(it.Tenant, false, sojournMS)
			it.rt.Span(obs.SpanService, "pipeline", tPush, time.Since(tPush), "error", err.Error())
			it.out <- Outcome{Err: err, Sojourn: sojourn}
			return
		}
		r = <-res
		break
	}
	serviceMS := float64(r.Latency) / float64(time.Millisecond)
	p.hService.ObserveExemplar(serviceMS, it.idStr)
	p.observeService(r.Latency)
	if r.Err != nil {
		p.failed.Add(1)
		p.cFail.Inc()
		it.rt.Span(obs.SpanService, "pipeline", tPush, r.Latency, "error", r.Err.Error())
	} else {
		p.completed.Add(1)
		p.cDone.Inc()
		it.rt.Span(obs.SpanService, "pipeline", tPush, r.Latency, "ok", "")
	}
	p.cfg.SLO.Record(it.Tenant, r.Err == nil, sojournMS+serviceMS)
	it.out <- Outcome{Output: r.DS, Err: r.Err, Sojourn: sojourn, Service: r.Latency}
}

// Swap replaces the backing pipeline stream with a fresh stream of pl —
// a live migration. The old stream is marked draining, drained of its
// in-flight work, and torn down; dispatchers that race the swap retry
// their push on the new stream. Admission never pauses.
func (p *Plane) Swap(pl *fxrt.Pipeline, opts fxrt.StreamOptions) error {
	ns, err := pl.Stream(opts)
	if err != nil {
		return err
	}
	old := p.be.Swap(&backend{s: ns, mon: pl.Monitor})
	if old != nil {
		old.mon.SetDraining(true)
		old.s.Close() // blocks until the old backend's in-flight resolves
	}
	return nil
}

// DrainStats summarizes a graceful drain.
type DrainStats struct {
	// Flushed is how many queued/in-flight requests completed during the
	// drain; Stream is the final pipeline stream statistics.
	Flushed int64
	Stream  fxrt.Stats
}

// Drain gracefully shuts the plane down: new submissions shed as
// draining, the queued backlog and every in-flight request run to
// completion (each submitter receives its outcome — zero loss), and the
// pipeline stream is torn down. Drain is idempotent; every call blocks
// until the drain completes.
func (p *Plane) Drain() DrainStats {
	p.drainOnce.Do(func() {
		p.draining.Store(true)
		p.be.Load().mon.SetDraining(true)
		before := p.completed.Load() + p.failed.Load()
		p.queue.Close()
		p.dispWg.Wait() // backlog flushed, every outcome delivered
		p.drainRes.Stream = p.be.Load().s.Close()
		p.drainRes.Flushed = p.completed.Load() + p.failed.Load() - before
	})
	return p.drainRes
}

// Stats is the plane's observable state, embedded into the live server's
// /pipeline payload and served at /v1/ingest.
type Stats struct {
	Draining       bool             `json:"draining"`
	BreakerOpen    bool             `json:"breakerOpen"`
	QueueDepth     int              `json:"queueDepth"`
	QueueHighWater int              `json:"queueHighWater"`
	Dispatching    int64            `json:"dispatching"`
	Admitted       int64            `json:"admitted"`
	Completed      int64            `json:"completed"`
	Failed         int64            `json:"failed"`
	Canceled       int64            `json:"canceled"`
	Shed           map[string]int64 `json:"shed"`
	EWMAServiceMS  float64          `json:"ewmaServiceMs"`
	StreamInFlight int              `json:"streamInFlight"`
	// Tenants is the per-tenant queue occupancy (depth and high-water).
	Tenants []TenantQueueStat `json:"tenants,omitempty"`
	// Trace is the tracer's accounting when tracing is enabled.
	Trace *obs.ReqTracerStats `json:"trace,omitempty"`
}

// Stats snapshots the plane.
func (p *Plane) Stats() Stats {
	p.ewmaMu.Lock()
	ewma := p.ewma
	p.ewmaMu.Unlock()
	p.brMu.Lock()
	open := p.brOpen
	p.brMu.Unlock()
	st := Stats{
		Draining:       p.draining.Load(),
		BreakerOpen:    open,
		QueueDepth:     p.queue.Len(),
		QueueHighWater: p.queue.HighWater(),
		Dispatching:    p.dispatch.Load(),
		Admitted:       p.admitted.Load(),
		Completed:      p.completed.Load(),
		Failed:         p.failed.Load(),
		Canceled:       p.canceled.Load(),
		Shed:           map[string]int64{},
		EWMAServiceMS:  ewma * 1000,
		StreamInFlight: p.be.Load().s.InFlight(),
	}
	for r, n := range p.shedBy {
		st.Shed[string(r)] = n.Load()
	}
	st.Tenants = p.queue.Tenants()
	// Publishing the per-tenant occupancy gauges here keeps them in step
	// with every stats poll without adding work to the admission path.
	for _, tq := range st.Tenants {
		p.gvQueueDepth.With(tq.Tenant).Set(float64(tq.Depth))
		p.gvQueueHigh.With(tq.Tenant).Set(float64(tq.HighWater))
	}
	if tr := p.cfg.Tracer; tr != nil {
		ts := tr.Stats()
		st.Trace = &ts
	}
	return st
}

package main

import (
	"fmt"
	"strings"
)

// layerTimes accumulates per-request self times by layer, in nanoseconds.
// A layer's self time is the part of the request's interval its own
// boundaries cover and no deeper layer's do, so the layers of one request
// tile its time from send to receipt; what none covers is the load
// generator's share from due time to send (its lateness and the wait for a
// free connection).
type layerTimes struct {
	order []string
	by    map[string][]float64
	e2e   []float64 // latency from due time

	cur, covered, total float64 // the current request's layers; sums over requests
}

func newLayerTimes(layers ...string) *layerTimes {
	return &layerTimes{order: layers, by: map[string][]float64{}}
}

func (l *layerTimes) add(layer string, ns int64) {
	l.by[layer] = append(l.by[layer], float64(ns))
	l.cur += float64(ns)
}

// done closes one request whose layers were added, with its latency from
// due time.
func (l *layerTimes) done(e2e int64) {
	l.e2e = append(l.e2e, float64(e2e))
	l.covered += l.cur
	l.total += float64(e2e)
	l.cur = 0
}

// check records in obs.unattributed_frac the share of end-to-end latency
// no layer span covers, and compares the sum of the layers' median self
// times with the median end-to-end latency: within 10% the layers account
// for the typical request; beyond it the report names the gap — the
// uncovered share, the rest being skew (medians of parts do not add up to
// the median of the whole).
func (l *layerTimes) check(r *run) {
	var parts []string
	sumP50 := 0.0
	for _, name := range l.order {
		p := pct(l.by[name], 0.5)
		sumP50 += p
		parts = append(parts, fmt.Sprintf("%s %.1fus", name, p/1e3))
	}
	e2e := pct(l.e2e, 0.5)
	gap := (e2e - sumP50) / e2e
	unattributed := 1 - l.covered/l.total
	r.set("obs.unattributed_frac", unattributed)
	verdict := "within 10%"
	if gap > 0.1 || gap < -0.1 {
		verdict = fmt.Sprintf("off by %.1f%%: %.1f%% is unattributed (obs.unattributed_frac), the rest is skew", 100*gap, 100*unattributed)
	}
	logf("layer sum: %s = %.1fus vs e2e p50 %.1fus (%s); no layer covers %.2f%% of the latency (the load generator's due-to-send share)",
		strings.Join(parts, " + "), sumP50/1e3, e2e/1e3, verdict, 100*unattributed)
}

// stageSpans adds the fxrt and kernel self times of one request's pass
// through an l-stage pipeline, from its push to leave (its result's
// hand-off back to the submitter), and records the per-stage series. It
// reports false when a stage boundary is missing.
func stageSpans(rec *reqRec, l int, leave int64, lt *layerTimes, ser series) bool {
	prevEnd := rec.pushEnd
	fx := rec.stages[0].start() - rec.pushStart
	kern := int64(0)
	for i := 0; i < l; i++ {
		st := rec.stages[i]
		if st.runStart == 0 || st.runEnd == 0 {
			return false
		}
		wait := st.start() - prevEnd
		if i > 0 {
			fx += wait
		}
		ser.add(fmt.Sprintf("fxrt.stage%d.wait_us", i), us(wait))
		if st.xferStart != 0 {
			fx += st.xferEnd - st.xferStart
			ser.add("fxrt.transfer.transpose_ms", ms(st.xferEnd-st.xferStart))
		}
		run := st.runEnd - st.runStart
		kern += run
		ser.add(fmt.Sprintf("stage%d.run_ns", i), float64(run))
		prevEnd = st.runEnd
	}
	fx += leave - prevEnd
	ser.add("fxrt.sink_us", us(leave-prevEnd))
	lt.add("fxrt", fx)
	lt.add("kernels", kern)
	return true
}

// series collects named per-request samples.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// setP50 records the median of each named series as the metric of the
// same name.
func (s series) setP50(r *run, names ...string) {
	for _, n := range names {
		if xs, ok := s[n]; ok {
			r.set(n, pct(xs, 0.5))
		}
	}
}

// overhead pairs untraced and traced chunks run back to back.
type overhead struct {
	fracs      []float64
	plainRTT   []float64
	tracedRTT  []float64
	late, wait []float64 // generator lateness and connection wait, traced chunks
}

// add folds one pair of chunks into the run's counts and the comparison:
// the relative difference of their median round trips (send to receipt,
// which leaves out the generator's queueing).
func (o *overhead) add(r *run, plain, traced []sample) {
	rtts := func(ss []sample) []float64 {
		var xs []float64
		for _, s := range ss {
			r.attempted++
			if !s.ok {
				r.failed++
				continue
			}
			xs = append(xs, float64(s.recv-s.send))
		}
		return xs
	}
	p, t := rtts(plain), rtts(traced)
	o.fracs = append(o.fracs, (pct(t, 0.5)-pct(p, 0.5))/pct(p, 0.5))
	o.plainRTT = append(o.plainRTT, p...)
	o.tracedRTT = append(o.tracedRTT, t...)
	for _, s := range traced {
		o.late = append(o.late, us(s.disp-s.due))
		o.wait = append(o.wait, us(s.send-s.disp))
	}
}

func (o *overhead) report(r *run, rate string) {
	r.set("obs.trace_overhead_frac", pct(o.fracs, 0.5))
	r.set("loadgen.late_p99_us", pct(o.late, 0.99))
	logf("tracing overhead: %.2f%% (median of %d chunk pairs at %s; round trip p50 untraced %.1fus, traced %.1fus); generator late p50 %.1fus p99 %.1fus, connection wait p50 %.1fus",
		100*pct(o.fracs, 0.5), len(o.fracs), rate, pct(o.plainRTT, 0.5)/1e3, pct(o.tracedRTT, 0.5)/1e3,
		pct(o.late, 0.5), pct(o.late, 0.99), pct(o.wait, 0.5))
}

// tracedServe is the traced pass of a serve workload: round by round it
// runs an open-loop chunk at the fixed rate on the untraced server, one on
// a traced twin (so both see the same host conditions), and a slice of the
// planning steps; then it reports the tracing overhead and the per-layer
// breakdown, and self-tests the load generator.
func (r *run) tracedServe(a serveApp, plain *httpClient, rid int, pln *planner) error {
	S := r.seconds
	n := int(a.rate * 0.3 * S / rounds)
	tr := newTracer(rounds * n)
	tsrv, err := startServer(r, a, tr)
	if err != nil {
		return err
	}
	tclient := newHTTPClient(tsrv.url, a.inputs(r.seed))
	defer tclient.close()
	tclient.closedLoop(secs(0.05*S), len(tr.recs)) // warm-up, outside the traced ID range

	var ov overhead
	var traced []sample
	var wall int64
	for k := 0; k < rounds && err == nil; k++ {
		ps := plain.openLoop(a.rate, n, rid)
		rid += n
		ts := tclient.openLoop(a.rate, n, k*n)
		wall += ts[n-1].recv - ts[0].due
		ov.add(r, ps, ts)
		for _, s := range ts {
			if s.ok {
				traced = append(traced, s)
			}
		}
		r.probeHost()
		err = pln.round()
	}
	tr.quiesce()
	r.closeServer(tsrv)
	if err != nil {
		return err
	}
	if tclient.badOut > 0 {
		r.fail("%d traced responses failed their output check: %v", tclient.badOut, tclient.errs)
	}
	ov.report(r, fmt.Sprintf("%.0f/s", a.rate))

	L := len(tsrv.mapping.Modules)
	lt := newLayerTimes("http", "apps", "ingest", "fxrt", "kernels")
	ser := series{}
	for _, s := range traced {
		rec := tr.rec(s.rid)
		if rec == nil || rec.hEnd == 0 || rec.encEnd == 0 || rec.pushEnd == 0 {
			continue
		}
		handler := rec.hEnd - rec.hStart
		wire := (s.recv - s.send) - handler
		if !stageSpans(rec, L, rec.encStart, lt, ser) {
			continue
		}
		ser.add("http.handler_us", us(handler))
		ser.add("http.wire_us", us(wire))
		ser.add("apps.decode_us", us(rec.decEnd-rec.decStart))
		ser.add("apps.encode_us", us(rec.encEnd-rec.encStart))
		ser.add("ingest.admit_us", us(rec.pushStart-rec.decEnd-s.sojournNS))
		ser.add("queue_us", us(s.sojournNS))
		ser.add("push_us", us(rec.pushEnd-rec.pushStart))
		lt.add("http", wire+(rec.decStart-rec.hStart)+(rec.hEnd-rec.encEnd))
		lt.add("apps", (rec.decEnd-rec.decStart)+(rec.encEnd-rec.encStart))
		lt.add("ingest", rec.pushStart-rec.decEnd)
		lt.done(s.latency())
	}
	if len(lt.e2e) == 0 {
		return fmt.Errorf("traced pass recorded no complete request")
	}
	ser.setP50(r, "http.handler_us", "http.wire_us", "apps.decode_us", "apps.encode_us",
		"ingest.admit_us", "fxrt.stage0.wait_us", "fxrt.stage1.wait_us", "fxrt.sink_us",
		"fxrt.transfer.transpose_ms")
	r.set("ingest.queue_wait_p50_us", pct(ser["queue_us"], 0.5))
	r.set("ingest.queue_wait_p99_us", pct(ser["queue_us"], 0.99))
	r.set("fxrt.push_block_p50_us", pct(ser["push_us"], 0.5))
	r.set("fxrt.push_block_p99_us", pct(ser["push_us"], 0.99))
	for i := 0; i < L && i < 2; i++ {
		runs := ser[fmt.Sprintf("stage%d.run_ns", i)]
		reps := tsrv.mapping.Modules[i].Replicas
		r.set(fmt.Sprintf("kernels.stage%d.compute_ms", i), pct(runs, 0.5)/1e6)
		r.set(fmt.Sprintf("kernels.stage%d.busy_frac", i), sum(runs)/(float64(wall)*float64(reps)))
		logf("stage%d %s (r=%d): compute p50 %.1fus, busy %.3f; wait p50 %.1fus", i,
			tsrv.mapping.Chain.TaskNames(tsrv.mapping.Modules[i].Lo, tsrv.mapping.Modules[i].Hi), reps,
			pct(runs, 0.5)/1e3, sum(runs)/(float64(wall)*float64(reps)), pct(ser[fmt.Sprintf("fxrt.stage%d.wait_us", i)], 0.5))
	}
	lt.check(r)

	achieved, late, e2e, err := selfTest(a.rate, secs(0.08*S))
	if err != nil {
		return err
	}
	// Bounded lateness: within two of this host's sleep floors (the
	// dispatcher sleeps between requests).
	verdict := "PASS"
	if achieved < 0.97*a.rate || late > 2*r.values["fxrt.sleep_floor_us"] {
		verdict = "FAIL (serve numbers include generator limits)"
	}
	logf("load generator self-test vs zero-work handler at %.0f/s: achieved %.1f/s, late p99 %.1fus, latency p99 %.1fus: %s",
		a.rate, achieved, late, e2e, verdict)
	return nil
}

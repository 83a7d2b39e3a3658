package live

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4). Metric names follow
// the repo's dotted scheme mechanically sanitized: "fxrt.op.exec:colffts"
// becomes "fxrt_op_exec_colffts". Windowed histograms are exposed as
// summaries (quantiles over the rolling window, cumulative _sum/_count),
// windowed counters as a monotone _total plus a _per_second gauge.

// promName sanitizes a dotted metric name into a valid Prometheus metric
// name ([a-zA-Z_:][a-zA-Z0-9_:]*).
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if i == 0 && r >= '0' && r <= '9' {
				b.WriteByte('_')
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// promLabelValue escapes a label value per the exposition format.
func promLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promFloat renders a sample value. Prometheus accepts NaN/Inf spellings,
// but all repo metrics are finite; guard anyway.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promWriter accumulates exposition lines, emitting each # TYPE header
// once.
type promWriter struct {
	w     io.Writer
	err   error
	typed map[string]bool
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, typed: map[string]bool{}}
}

func (p *promWriter) head(name, typ, help string) {
	if p.err != nil || p.typed[name] {
		return
	}
	p.typed[name] = true
	if help != "" {
		_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n", name, help)
		if p.err != nil {
			return
		}
	}
	_, p.err = fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

// sample writes one series; labels alternate key, value.
func (p *promWriter) sample(name string, v float64, labels ...string) {
	if p.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, labels[i], promLabelValue(labels[i+1]))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(promFloat(v))
	b.WriteByte('\n')
	_, p.err = io.WriteString(p.w, b.String())
}

func (p *promWriter) gauge(name, help string, v float64, labels ...string) {
	p.head(name, "gauge", help)
	p.sample(name, v, labels...)
}

func (p *promWriter) counter(name, help string, v float64, labels ...string) {
	p.head(name, "counter", help)
	p.sample(name, v, labels...)
}

// summary writes a windowed-quantile summary with cumulative sum/count.
func (p *promWriter) summary(name, help string, st WindowStat, count int64, sum float64, labels ...string) {
	p.head(name, "summary", help)
	p.sample(name, st.P50, append(labels, "quantile", "0.5")...)
	p.sample(name, st.P90, append(labels, "quantile", "0.9")...)
	p.sample(name, st.P99, append(labels, "quantile", "0.99")...)
	p.sample(name+"_sum", sum, labels...)
	p.sample(name+"_count", float64(count), labels...)
}

// writeMonitor emits the pipeline health model as Prometheus series.
func writeMonitor(p *promWriter, m *Monitor) {
	if m == nil {
		return
	}
	h := m.Health()
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	p.gauge("pipemap_up", "1 while the live observability server is attached to a pipeline.", 1)
	p.gauge("pipemap_ready", "1 when the pipeline is started and nominal.", b2f(h.Ready))
	p.gauge("pipemap_degraded", "1 when the pipeline is serving below nominal capacity.", b2f(h.Status == "degraded"))
	p.gauge("pipemap_uptime_seconds", "Seconds since the pipeline started (virtual in replays).", h.UptimeSeconds)
	p.counter("pipemap_datasets_completed_total", "Data sets that reached the sink.", float64(h.Completed))
	p.gauge("pipemap_throughput_datasets_per_second", "Windowed observed throughput at the sink.", h.ObservedThroughput)
	p.gauge("pipemap_predicted_throughput_datasets_per_second", "Model-predicted steady-state throughput 1/max_i(f_i/r_i).", h.PredictedThroughput)
	p.gauge("pipemap_bottleneck_stage", "Index of the stage with the largest observed period f_i/r_i.", float64(h.BottleneckStage))
	lc, ls := m.latency.Total()
	p.summary("pipemap_latency_seconds", "End-to-end data set latency (windowed quantiles).", h.Latency, lc, ls)

	// All series of one metric family must be consecutive in the
	// exposition, so iterate metric-major, stage-minor.
	eachStage := func(f func(sh *StageHealth, labels []string)) {
		for i := range h.Stages {
			f(&h.Stages[i], []string{"stage", h.Stages[i].Name})
		}
	}
	eachStage(func(sh *StageHealth, l []string) {
		p.counter("pipemap_stage_completed_total", "Successful stage attempts.", float64(sh.Completed), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.gauge("pipemap_stage_rate_datasets_per_second", "Windowed stage completion rate.", sh.Rate, l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.gauge("pipemap_stage_period_seconds", "Observed stage period: windowed mean attempt latency / live replicas (the observed f_i/r_i).", sh.ObservedPeriod, l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.gauge("pipemap_stage_predicted_period_seconds", "Model-predicted stage period f_i/r_i.", sh.PredictedPeriod, l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.gauge("pipemap_stage_replicas", "Configured replicas of the stage.", float64(sh.Replicas), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.gauge("pipemap_stage_live_replicas", "Replicas still in rotation.", float64(sh.Live), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.counter("pipemap_stage_retries_total", "Retried attempts.", float64(sh.Retries), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.counter("pipemap_stage_drops_total", "Data sets dropped at this stage.", float64(sh.Drops), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.counter("pipemap_stage_timeouts_total", "Attempts cut off by the stage deadline.", float64(sh.Timeouts), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		p.counter("pipemap_stage_deaths_total", "Instances declared dead.", float64(sh.Deaths), l...)
	})
	eachStage(func(sh *StageHealth, l []string) {
		sc, ss := m.stages[sh.Stage].lat.Total()
		p.summary("pipemap_stage_latency_seconds", "Per-attempt stage latency (windowed quantiles).", sh.Latency, sc, ss, l...)
	})
}

// writeRegistry emits a registry's instruments. Summaries carry the
// cumulative _count/_sum (Histogram.Total) beside the windowed quantiles,
// so a series with no recent samples still reads its lifetime totals.
func writeRegistry(p *promWriter, r *Registry) {
	if r == nil {
		return
	}
	in := r.instruments()
	for _, k := range sortedKeys(in.counters) {
		c, n := in.counters[k], promName(k)
		p.counter(n+"_total", "", float64(c.Total()))
		p.gauge(n+"_per_second", "", c.Rate())
	}
	for _, k := range sortedKeys(in.gauges) {
		p.gauge(promName(k), "", in.gauges[k].Value())
	}
	for _, k := range sortedKeys(in.hists) {
		h := in.hists[k]
		count, sum := h.Total()
		p.summary(promName(k), "", h.Window(), count, sum)
	}
	// Labeled families. Label values were sanitized at With() time, so they
	// can never break the exposition; family-major order keeps all series
	// of one family consecutive as the format requires.
	for _, k := range sortedKeys(in.counterVecs) {
		v := in.counterVecs[k]
		n, lk, series := promName(k), promName(v.label), v.vec.snapshot()
		lvs := sortedKeys(series)
		for _, lv := range lvs {
			p.counter(n+"_total", "", float64(series[lv].Total()), lk, lv)
		}
		for _, lv := range lvs {
			p.gauge(n+"_per_second", "", series[lv].Rate(), lk, lv)
		}
	}
	for _, k := range sortedKeys(in.gaugeVecs) {
		v := in.gaugeVecs[k]
		n, lk, series := promName(k), promName(v.label), v.vec.snapshot()
		for _, lv := range sortedKeys(series) {
			p.gauge(n, "", series[lv].Value(), lk, lv)
		}
	}
	for _, k := range sortedKeys(in.histVecs) {
		v := in.histVecs[k]
		n, lk, series := promName(k), promName(v.label), v.vec.snapshot()
		for _, lv := range sortedKeys(series) {
			h := series[lv]
			count, sum := h.Total()
			p.summary(n, "", h.Window(), count, sum, lk, lv)
		}
	}
}

// WriteProm writes the full exposition: the monitor-derived pipeline
// metrics, then the registry's instruments. Either source may be nil.
func WriteProm(w io.Writer, m *Monitor, r *Registry) error {
	p := newPromWriter(w)
	writeMonitor(p, m)
	writeRegistry(p, r)
	return p.err
}

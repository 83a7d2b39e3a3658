package sim

import (
	"sort"

	"pipemap/internal/obs/live"
)

// TraceDataSets returns the number of distinct data sets in the trace.
func (r Result) TraceDataSets() int {
	seen := map[int]bool{}
	for _, s := range r.Trace {
		if s.Kind != OpFail {
			seen[s.DataSet] = true
		}
	}
	return len(seen)
}

// Replay feeds a traced simulation through a live monitor in virtual time:
// each simulated stage completion becomes a StageDone observation at its
// virtual end time, fail-stop failure events become instance deaths, and
// data sets leaving the last module become end-to-end completions. The
// virtual clock is stepped to each event's timestamp before the event is
// applied, so the monitor's rolling windows, rates and health model read
// exactly as they would have partway through a real run of the same
// timeline — which is what lets one HTTP surface serve both real pipelines
// and simulated ones.
//
// The per-data-set stage latency reported is the instance's busy time on
// that data set (receive + compute + redistributions + send), i.e. the
// simulated response time f_i, so the observed period converges to the
// model's f_i/r_i.
//
// pace, when non-nil, is called with the virtual seconds elapsing before
// each step; a caller can sleep some fraction of it to play the timeline
// back at a chosen speed for a live dashboard. nil replays instantly.
// Requires a trace: run the simulation with Options.Trace set.
func Replay(res Result, mon *live.Monitor, vc *live.VirtualClock, pace func(virtualDelta float64)) {
	type key struct{ mod, ds int }
	type agg struct{ busy, end float64 }
	per := map[key]*agg{}
	dsStart := map[int]float64{}
	lastMod := 0
	for _, seg := range res.Trace {
		if seg.Kind == OpFail {
			continue
		}
		if seg.Module > lastMod {
			lastMod = seg.Module
		}
		k := key{seg.Module, seg.DataSet}
		a := per[k]
		if a == nil {
			a = &agg{}
			per[k] = a
		}
		a.busy += seg.End - seg.Start
		if seg.End > a.end {
			a.end = seg.End
		}
		if s, ok := dsStart[seg.DataSet]; !ok || seg.Start < s {
			dsStart[seg.DataSet] = seg.Start
		}
	}

	const (
		evDeath = iota // deaths first among same-time events
		evDone
		evCompleted
	)
	type event struct {
		t       float64
		kind    int
		module  int
		dataset int
		v       float64 // busy seconds (done) or end-to-end latency (completed)
	}
	events := make([]event, 0, len(per)+len(dsStart))
	for k, a := range per {
		events = append(events, event{t: a.end, kind: evDone, module: k.mod, dataset: k.ds, v: a.busy})
		if k.mod == lastMod {
			events = append(events, event{t: a.end, kind: evCompleted, module: k.mod,
				dataset: k.ds, v: a.end - dsStart[k.ds]})
		}
	}
	for _, seg := range res.Trace {
		if seg.Kind == OpFail {
			events = append(events, event{t: seg.Start, kind: evDeath, module: seg.Module, dataset: seg.DataSet})
		}
	}
	// Full tiebreak so the replay order is deterministic despite the map
	// iteration above.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.module != b.module {
			return a.module < b.module
		}
		return a.dataset < b.dataset
	})

	set := func(s float64) {
		if vc != nil {
			vc.SetSeconds(s)
		}
	}
	set(0)
	mon.Start()
	now := 0.0
	for _, ev := range events {
		if ev.t > now {
			if pace != nil {
				pace(ev.t - now)
			}
			now = ev.t
		}
		set(now)
		switch ev.kind {
		case evDone:
			mon.StageDone(ev.module, ev.v)
		case evCompleted:
			mon.Completed(ev.v)
		case evDeath:
			mon.InstanceDeath(ev.module, ev.dataset)
		}
	}
	if res.Makespan > now {
		set(res.Makespan)
	}
	mon.Finish()
}

package fxrt

import (
	"time"
)

// FaultKind selects the behaviour of an injected fault.
type FaultKind int

const (
	// FaultFail makes the attempt return an error without running the
	// stage function.
	FaultFail FaultKind = iota
	// FaultHang blocks the attempt until the stream closes (so a
	// configured stage deadline is the only way out).
	FaultHang
	// FaultSlow delays the attempt by Delay before running the stage
	// function.
	FaultSlow
)

func (k FaultKind) String() string {
	switch k {
	case FaultFail:
		return "fail"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	default:
		return "?"
	}
}

// Fault is one deterministic injected fault. Faults fire purely as a
// function of (stage, instance, data set, attempt), so a faulty run is
// exactly reproducible: no clocks or random numbers are involved in the
// decision.
type Fault struct {
	// Stage is the stage index the fault applies to.
	Stage int
	// Instance is the replica index, or -1 for every instance.
	Instance int
	// DataSet is the stream index, or -1 for every data set.
	DataSet int
	// Kind is the injected behaviour.
	Kind FaultKind
	// Attempts limits the fault to the first Attempts attempts per
	// (instance, data set); 0 means every attempt (a permanent fault).
	// Attempts = 2 with a retrying pipeline models a transient fault that
	// heals on the third try.
	Attempts int
	// Delay is the extra latency injected by FaultSlow.
	Delay time.Duration
}

// matchFault returns the first configured fault that applies to the given
// attempt, or nil.
func (p *Pipeline) matchFault(stage, instance, dataSet, attempt int) *Fault {
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Stage != stage {
			continue
		}
		if f.Instance >= 0 && f.Instance != instance {
			continue
		}
		if f.DataSet >= 0 && f.DataSet != dataSet {
			continue
		}
		if f.Attempts > 0 && attempt >= f.Attempts {
			continue
		}
		return f
	}
	return nil
}

// RetryPolicy controls per-data-set retries within a stage. The zero value
// disables retries: a failed attempt drops the data set, or fails a batch
// run that has no fault-tolerance options.
type RetryPolicy struct {
	// MaxRetries is the number of retries after the first attempt, so a
	// data set gets MaxRetries+1 attempts per stage.
	MaxRetries int
	// Backoff is the delay before the first retry; each further retry
	// doubles it (capped exponential backoff). Zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff; zero means uncapped.
	MaxBackoff time.Duration
}

// BackoffFor returns the delay before retry number retry (1-based).
func (rp RetryPolicy) BackoffFor(retry int) time.Duration {
	if rp.Backoff <= 0 || retry < 1 {
		return 0
	}
	d := rp.Backoff
	for k := 1; k < retry; k++ {
		d *= 2
		if rp.MaxBackoff > 0 && d >= rp.MaxBackoff {
			return rp.MaxBackoff
		}
	}
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	return d
}

// faultTolerant reports whether any fault-tolerance option is set. A batch
// run without one fails on its first failed data set; with one, failed
// data sets are dropped and counted.
func (p *Pipeline) faultTolerant() bool {
	if p.Retry.MaxRetries > 0 || p.StageDeadline > 0 || p.DeadAfter > 0 || len(p.Faults) > 0 {
		return true
	}
	for _, s := range p.Stages {
		if s.Deadline > 0 {
			return true
		}
	}
	return false
}

// deadlineFor returns the effective deadline of stage i: the stage's own
// Deadline if set, else the pipeline-wide StageDeadline (0 = none).
func (p *Pipeline) deadlineFor(i int) time.Duration {
	if d := p.Stages[i].Deadline; d > 0 {
		return d
	}
	return p.StageDeadline
}

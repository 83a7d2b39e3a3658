package main

import (
	"sort"
	"time"
)

// base is the benchmark's single time origin: client and server
// timestamps are both nanoseconds since it, so they subtract directly.
var base = time.Now()

// now returns monotonic nanoseconds since base.
func now() int64 { return int64(time.Since(base)) }

// pct returns the q-quantile of xs (linear interpolation between order
// statistics), without reordering xs; 0 for an empty slice.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// iqm is the interquartile mean of xs: the mean of its middle half, 0 for
// an empty slice. It aggregates set-ups, closed-loop rate windows, the
// host probe and the sleep-bound emulation: quantities that follow the
// whole run's share of slow time, as the probe does.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	return sum(s[q:len(s)-q]) / float64(len(s)-2*q)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// us and ms convert nanoseconds to microseconds and milliseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// timed runs f and returns its wall time in nanoseconds.
func timed(f func() error) (int64, error) {
	t := now()
	err := f()
	return now() - t, err
}

// windowRates splits [start, stop) into windows of win nanoseconds and
// returns each window's completion rate per second, taken between its
// first and last completion so it is not rounded to whole completions.
func windowRates(done []int64, start, stop, win int64) []float64 {
	k := int((stop - start) / win)
	if k < 1 {
		k, win = 1, stop-start
	}
	first := make([]int64, k)
	last := make([]int64, k)
	count := make([]int, k)
	for _, t := range done {
		i := (t - start) / win
		if t < start || i >= int64(k) {
			continue
		}
		if count[i] == 0 || t < first[i] {
			first[i] = t
		}
		if t > last[i] {
			last[i] = t
		}
		count[i]++
	}
	var rates []float64
	for i := range count {
		if count[i] >= 2 && last[i] > first[i] {
			rates = append(rates, float64(count[i]-1)/(float64(last[i]-first[i])/1e9))
		}
	}
	return rates
}

// quietQ picks the quiet part of a run. The host is shared, and other
// tenants disturb it in two ways that come and go within a run. Its vCPUs
// flip, every fraction of a second, between a fast state and one about
// 1.6× slower (a fixed compute chunk timed four times a second reads
// either ~28 ms or ~44 ms, and the share of each moves from one ten-second
// stretch to the next while the fast mode stays within ±7%). And the vCPUs
// are taken away for milliseconds at a time, in bursts; latency from due
// time multiplies each such stall by the queue behind it. A median or mean
// moves with the share of slow time; the fast, quiet tenth agrees from run
// to run. So timed repetitions and windowed latencies report their
// quietQ-quantile. A slower build moves every repetition and window, the
// quiet ones included, so it still shows; a stall the program itself adds
// to only some windows would not, which is why the report also prints
// percentiles over all samples. (The share of slow time is what host.go's
// probe follows from run to run.)
const quietQ = 0.1

// fast is the quiet tenth of timed repetitions.
func fast(xs []float64) float64 { return pct(xs, quietQ) }

// chunked splits the successful samples' latencies (ms, from due time)
// into consecutive chunks of size and returns the quietQ-quantile over
// chunks of each chunk's q-quantile: the q-latency of the quiet windows.
// Fewer samples than size form one chunk.
func chunked(samples []sample, size int, q float64) float64 {
	var lat, per []float64
	flush := func() {
		if len(lat) > 0 {
			per = append(per, pct(lat, q))
			lat = lat[:0]
		}
	}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		lat = append(lat, ms(s.latency()))
		if len(lat) == size {
			flush()
		}
	}
	if len(per) == 0 || len(lat) >= size/2 {
		flush()
	}
	return pct(per, quietQ)
}

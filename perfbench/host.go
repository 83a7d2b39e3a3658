package main

// The host's speed. The host is shared, and how fast its vCPUs run drifts
// from minute to minute as other tenants come and go: over ten runs on the
// 2-vCPU host the workloads were defined on, the closed-loop peak, cold
// solves and FFT-Hist latency moved together by up to 1.5×, for whole
// runs at a time, so no reading within a run can tell a faster build from
// a faster host. Each run therefore also times the host itself: every
// round, probeChunks single-goroutine chunks of fixed arithmetic, which
// run no code of the program (a faster build does not move them). The
// host speed is refChunkNS over the interquartile mean of their times, and
// every end-to-end timing is reported at speed 1: a time multiplied by the
// speed, a rate divided by it. The report prints the raw values beside
// them.

// probeChunks is how many chunks the probe times in each round.
const probeChunks = 200

// chunkLen is the number of multiply-adds in one chunk: about 8µs.
const chunkLen = 4096

// refChunkNS is the interquartile mean chunk time, in nanoseconds, on the
// host the workloads were defined on: host speed 1 there.
const refChunkNS = 8600

// probeSink keeps the probe's arithmetic from being optimised away.
var probeSink float64

// chunk runs one probe chunk over buf, whose length is a power of two.
func chunk(buf []float64) float64 {
	x := 0.0
	for i := 0; i < chunkLen; i++ {
		j := (i * 7) & (len(buf) - 1)
		buf[j] = buf[j]*0.999 + float64(i&15)
		x += buf[j]
	}
	return x
}

// probeHost times one round's chunks.
func (r *run) probeHost() {
	buf := make([]float64, 1024)
	for i := 0; i < probeChunks; i++ {
		t := now()
		probeSink += chunk(buf)
		r.chunkNS = append(r.chunkNS, float64(now()-t))
	}
}

// hostSpeed is the run's host speed: 1 on the reference host, above 1 on a
// faster one.
func (r *run) hostSpeed() float64 { return refChunkNS / iqm(r.chunkNS) }

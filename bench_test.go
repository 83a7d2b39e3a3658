// Benchmarks regenerating every table and figure of the paper plus the
// algorithmic scaling and ablation studies. Run with:
//
//	go test -bench=. -benchmem
//
// Reproduction benches (BenchmarkTable*, BenchmarkFigure*, ...) regenerate
// the corresponding artifact once per iteration and report the headline
// metric with b.ReportMetric, so `-bench` output doubles as a compact
// results table. Scaling benches measure the mapping algorithms
// themselves (DP O(P^4 k^2) versus greedy O(Pk)).
package pipemap_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pipemap"
	"pipemap/internal/apps"
	"pipemap/internal/bench"
	"pipemap/internal/dp"
	"pipemap/internal/greedy"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
	"pipemap/internal/sim"
	"pipemap/internal/testutil"
	"pipemap/internal/tradeoff"
)

// --- Table and figure reproduction benches ---

func BenchmarkTable1(b *testing.B) {
	var thr float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		thr = rows[0].OptimalThr
	}
	b.ReportMetric(thr, "row1_thr/s")
}

func BenchmarkTable2(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(7)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "row1_ratio")
}

func BenchmarkFigure1(b *testing.B) {
	var opt float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		opt = rows[len(rows)-1].Throughput
	}
	b.ReportMetric(opt, "mixed_thr/s")
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelAccuracy(b *testing.B) {
	cfgs, err := apps.Table2Configs()
	if err != nil {
		b.Fatal(err)
	}
	var errPct float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Accuracy(cfgs[0], 0.03, 11)
		if err != nil {
			b.Fatal(err)
		}
		errPct = res.TaskErrPct
	}
	b.ReportMetric(errPct, "task_err_%")
}

func BenchmarkAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Agreement()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Agree {
				b.Fatalf("%s disagrees", r.Name)
			}
		}
	}
}

func BenchmarkPathology(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Pathology()
		if err != nil {
			b.Fatal(err)
		}
		gap = r.DPThr / r.GreedyThr
	}
	b.ReportMetric(gap, "dp/greedy")
}

// --- Algorithm scaling benches: the DP on singleton spans (assignment) and on
// every span (full mapping) vs greedy O(Pk) ---

func scalingChain(k int) *model.Chain {
	rng := rand.New(rand.NewSource(int64(k)))
	c, _ := testutil.RandChain(rng, testutil.RandChainConfig{
		MinTasks: k, MaxTasks: k, MaxMinProcs: 2, AllowNonReplicable: false,
	}, 8)
	return c
}

func BenchmarkDPAssignScaling(b *testing.B) {
	for _, P := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("P=%d", P), func(b *testing.B) {
			c := scalingChain(4)
			pl := model.Platform{Procs: P, MemPerProc: 1000}
			for i := 0; i < b.N; i++ {
				if _, err := dp.MapChain(c, pl, dp.Options{DisableClustering: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDPMapChainScaling(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			c := scalingChain(k)
			pl := model.Platform{Procs: 32, MemPerProc: 1000}
			for i := 0; i < b.N; i++ {
				if _, err := dp.MapChain(c, pl, dp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedyScaling(b *testing.B) {
	for _, P := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("P=%d", P), func(b *testing.B) {
			c := scalingChain(4)
			pl := model.Platform{Procs: P, MemPerProc: 1000}
			for i := 0; i < b.N; i++ {
				if _, err := greedy.Map(c, pl, greedy.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches: what each mapping dimension is worth on FFT-Hist ---

func benchAblation(b *testing.B, opt dp.Options) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		b.Fatal(err)
	}
	pl := apps.Platform()
	var thr float64
	for i := 0; i < b.N; i++ {
		m, err := dp.MapChain(c, pl, opt)
		if err != nil {
			b.Fatal(err)
		}
		thr = m.Throughput()
	}
	b.ReportMetric(thr, "thr/s")
}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b, dp.Options{}) }

func BenchmarkAblationNoReplication(b *testing.B) {
	benchAblation(b, dp.Options{DisableReplication: true})
}

func BenchmarkAblationNoClustering(b *testing.B) {
	benchAblation(b, dp.Options{DisableClustering: true})
}

func BenchmarkAblationAssignmentOnly(b *testing.B) {
	benchAblation(b, dp.Options{DisableReplication: true, DisableClustering: true})
}

// --- Substrate benches ---

func BenchmarkSimulator(b *testing.B) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		b.Fatal(err)
	}
	m, err := dp.MapChain(c, apps.Platform(), dp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(sim.Options{DataSets: 400})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT1D(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(float64(i%13), 0)
			}
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				if err := kernels.FFT(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRealFFTHistPipeline(b *testing.B) {
	r := apps.FFTHistRunner{N: 64, DataSets: 8}
	c := apps.FFTHistStructure(64)
	m := pipemap.Mapping{Chain: c, Modules: []pipemap.Module{
		{Lo: 0, Hi: 1, Procs: 1, Replicas: 2},
		{Lo: 1, Hi: 3, Procs: 2, Replicas: 1},
	}}
	var thr float64
	for i := 0; i < b.N; i++ {
		stats, err := r.Run(m)
		if err != nil {
			b.Fatal(err)
		}
		thr = stats.Throughput
	}
	b.ReportMetric(thr, "datasets/s")
}

func BenchmarkMinLatency(b *testing.B) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		b.Fatal(err)
	}
	pl := apps.Platform()
	var lat float64
	for i := 0; i < b.N; i++ {
		m, err := dp.MinLatency(c, pl)
		if err != nil {
			b.Fatal(err)
		}
		lat = m.Latency()
	}
	b.ReportMetric(1e3*lat, "min_latency_ms")
}

func BenchmarkTradeoffFrontier(b *testing.B) {
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		b.Fatal(err)
	}
	pl := apps.Platform()
	var points int
	for i := 0; i < b.N; i++ {
		front, err := tradeoff.Frontier(c, pl, tradeoff.Options{MinThroughputGain: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		points = len(front)
	}
	b.ReportMetric(float64(points), "pareto_points")
}

package apps

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pipemap/internal/dp"
	"pipemap/internal/estimate"
	"pipemap/internal/model"
)

func radarMapping(c *model.Chain) model.Mapping {
	return model.Mapping{Chain: c, Modules: []model.Module{
		{Lo: 0, Hi: 2, Procs: 2, Replicas: 2},
		{Lo: 2, Hi: 3, Procs: 2, Replicas: 1},
		{Lo: 3, Hi: 4, Procs: 1, Replicas: 1},
	}}
}

func TestRadarRunnerEndToEnd(t *testing.T) {
	r := RadarRunner{Pulses: 8, Gates: 64, DataSets: 6}
	stats, _, err := r.Run(radarMapping(RadarStructure()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Throughput <= 0 {
		t.Errorf("throughput %g", stats.Throughput)
	}
	for _, op := range []string{opPulseComp, opDoppler, opCFAR, opTrack, opCornerTurn, opDetGather} {
		if _, ok := stats.Ops[op]; !ok {
			t.Errorf("missing op %s: %v", op, stats.Ops)
		}
	}
}

func TestRadarRunnerDetectsTarget(t *testing.T) {
	// The track stage accumulates hits; the injected target cell must
	// dominate the track map.
	r := RadarRunner{Pulses: 16, Gates: 128, DataSets: 4, TargetGate: 40, TargetDoppler: 5}
	c := RadarStructure()
	m := model.DataParallel(c, model.Platform{Procs: 2})
	stats, tracks, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataSets != 4 {
		t.Errorf("processed %d data sets", stats.DataSets)
	}
	if len(tracks) == 0 {
		t.Fatal("no tracks accumulated")
	}
	var bestCell [2]int
	bestHits := -1
	for cell, hits := range tracks {
		if hits > bestHits {
			bestCell, bestHits = cell, hits
		}
	}
	// The matched filter response spreads over adjacent gates; accept the
	// true gate +/- 2.
	if bestCell[0] != 5 || bestCell[1] < 38 || bestCell[1] > 42 {
		t.Errorf("dominant track at doppler=%d gate=%d, want 5/40±2 (hits %d, map %v)",
			bestCell[0], bestCell[1], bestHits, tracks)
	}
}

// TestRadarClutterMatchesSin checks the table-rotated clutter against
// its definition, 0.02*sin(idx+seed), on every cell the echo leaves
// alone, for seeds up to just under 2^53 in magnitude.
func TestRadarClutterMatchesSin(t *testing.T) {
	r := RadarRunner{}
	pulses, gates := r.dims()
	tg, td := r.target()
	seeds := []int{0, 1, -1, 255, 1 << 20, 1 << 31, -1 << 31, 1 << 40, 1 << 52}
	// Random seeds keep idx+seed inside (-2^53, 2^53), where it is exact.
	span := int64(1<<53 - pulses*gates)
	rng := rand.New(rand.NewSource(53))
	for range 200 {
		seeds = append(seeds, int(rng.Int63n(2*span)-span))
	}
	worst := 0.0
	for _, seed := range seeds {
		rd := r.inputAt(seed, tg, td)
		for idx, v := range rd.Cube.Data {
			if g := idx % gates; g >= tg && g < tg+len(radarChirp) {
				continue
			}
			want := 0.02 * math.Sin(float64(idx+seed))
			if imag(v) != 0 || math.Abs(real(v)-want) > 2e-17 {
				t.Fatalf("seed %d cell %d: clutter %v, want %v", seed, idx, v, want)
			}
			worst = max(worst, math.Abs(real(v)-want))
		}
		rd.release()
	}
	t.Logf("largest clutter error over %d seeds: %.3g", len(seeds), worst)
}

// TestRadarClutterTableConcurrent synthesizes cubes of a size no other
// test uses from several goroutines at once, so they race to build its
// clutter table; every cube must equal the one synthesized afterwards.
func TestRadarClutterTableConcurrent(t *testing.T) {
	r := RadarRunner{Pulses: 2, Gates: 64}
	got := make([]*RadarData, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = r.inputAt(5, 9, 1)
		}()
	}
	wg.Wait()
	want := r.inputAt(5, 9, 1)
	for g, rd := range got {
		if !reflect.DeepEqual(rd.Cube.Data, want.Cube.Data) {
			t.Errorf("goroutine %d synthesized a different cube", g)
		}
	}
}

// BenchmarkRadarInput times the synthesis of one served 16x256 radar cube.
func BenchmarkRadarInput(b *testing.B) {
	r := RadarRunner{}
	r.input(0).release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.input(i).release()
	}
}

func TestRadarRunnerErrors(t *testing.T) {
	r := RadarRunner{Pulses: 7, Gates: 64}
	if _, _, err := r.Run(radarMapping(RadarStructure())); err == nil {
		t.Error("non-power-of-two pulses accepted")
	}
	short := &model.Chain{Tasks: []model.Task{{Name: "x", Exec: model.ZeroExec()}}}
	r2 := RadarRunner{}
	if _, _, err := r2.Run(model.DataParallel(short, model.Platform{Procs: 2})); err == nil {
		t.Error("wrong chain shape accepted")
	}
}

func TestRadarRunnerProfileShape(t *testing.T) {
	r := RadarRunner{Pulses: 8, Gates: 64, DataSets: 4}
	meas, err := r.Profile(radarMapping(RadarStructure()))
	if err != nil {
		t.Fatal(err)
	}
	if len(meas.TaskExec) != 4 || len(meas.EdgeComm) != 3 {
		t.Fatalf("measurement shape %d/%d", len(meas.TaskExec), len(meas.EdgeComm))
	}
	for i, v := range meas.TaskExec {
		if v <= 0 {
			t.Errorf("task %d measured %g", i, v)
		}
	}
}

func TestStereoRunnerEndToEndAndDepth(t *testing.T) {
	r := StereoRunner{W: 64, H: 32, Disparities: 6, DataSets: 5, TrueDisparity: 2}
	c := StereoStructure()
	m := model.Mapping{Chain: c, Modules: []model.Module{
		{Lo: 0, Hi: 1, Procs: 1, Replicas: 1},
		{Lo: 1, Hi: 3, Procs: 2, Replicas: 2},
		{Lo: 3, Hi: 4, Procs: 2, Replicas: 1},
	}}
	stats, last, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Throughput <= 0 {
		t.Errorf("throughput %g", stats.Throughput)
	}
	if acc := r.VerifyDepth(last); acc < 0.95 {
		t.Errorf("depth accuracy %.2f below 0.95", acc)
	}
	for _, op := range []string{opCapture, opDiff, opErr, opDepth, opBroadcast} {
		if _, ok := stats.Ops[op]; !ok {
			t.Errorf("missing op %s", op)
		}
	}
}

func TestStereoRunnerProfileShape(t *testing.T) {
	r := StereoRunner{W: 32, H: 16, Disparities: 4, DataSets: 3}
	c := StereoStructure()
	meas, err := r.Profile(model.DataParallel(c, model.Platform{Procs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(meas.TaskExec) != 4 || len(meas.EdgeComm) != 3 {
		t.Fatalf("measurement shape %d/%d", len(meas.TaskExec), len(meas.EdgeComm))
	}
}

func TestStereoRunnerErrors(t *testing.T) {
	short := &model.Chain{Tasks: []model.Task{{Name: "x", Exec: model.ZeroExec()}}}
	r := StereoRunner{}
	if _, _, err := r.Run(model.DataParallel(short, model.Platform{Procs: 2})); err == nil {
		t.Error("wrong chain shape accepted")
	}
}

func TestStereoVerifyDepthNil(t *testing.T) {
	r := StereoRunner{}
	if r.VerifyDepth(nil) != 0 {
		t.Error("nil depth should verify as 0")
	}
}

func TestRadarRunnerFullFeedbackLoop(t *testing.T) {
	// The paper's complete loop on the real radar runtime: profile the 8
	// training runs, fit models, predict a mapping.
	if testing.Short() {
		t.Skip("real-runtime profiling")
	}
	r := RadarRunner{Pulses: 8, Gates: 64, DataSets: 4}
	structure := RadarStructure()
	pl := model.Platform{Procs: 6}
	fitted, err := estimate.EstimateChain(structure, r, pl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dp.MapChain(fitted, pl, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(pl); err != nil {
		t.Errorf("predicted mapping invalid: %v", err)
	}
}

func TestStereoRunnerFullFeedbackLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runtime profiling")
	}
	r := StereoRunner{W: 64, H: 32, Disparities: 4, DataSets: 4}
	structure := StereoStructure()
	pl := model.Platform{Procs: 6}
	fitted, err := estimate.EstimateChain(structure, r, pl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dp.MapChain(fitted, pl, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput() <= 0 {
		t.Error("no predicted throughput")
	}
}

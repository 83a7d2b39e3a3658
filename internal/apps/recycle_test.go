package apps

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/kernels"
	"pipemap/internal/model"
)

// servedApp is one application as the ingestion data plane serves it: its
// codec and a pipeline built on the DP mapping of its committed spec.
type servedApp struct {
	name    string
	codec   ingest.Codec
	mapping model.Mapping
	build   func(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, error)
	input   func(i int) string
	// result extracts, before Encode recycles the data set, what the
	// request computed.
	result func(out fxrt.DataSet) any
}

func specMapping(t testing.TB, spec string) model.Mapping {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "specs", spec+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, pl, err := core.ParseChainSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(core.Request{Chain: c, Platform: pl, Algorithm: core.DP})
	if err != nil {
		t.Fatal(err)
	}
	return res.Mapping
}

// radarServed serves the 16x256 radar cube on the radar64 DP mapping.
func radarServed(t testing.TB) servedApp {
	r := RadarRunner{Pulses: 16, Gates: 256}
	return servedApp{
		name:    "radar",
		codec:   RadarCodec{Runner: r},
		mapping: specMapping(t, "radar64"),
		build: func(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, error) {
			pl, _, err := r.Pipeline(m)
			return pl, nil, err
		},
		input: func(i int) string {
			return fmt.Sprintf(`{"seed":%d,"target_gate":%d,"target_doppler":%d}`, i, 16+(37*i)%200, 1+i%15)
		},
		result: func(out fxrt.DataSet) any {
			return append([]kernels.Detection(nil), out.(*RadarData).Dets...)
		},
	}
}

// ffthistServed serves FFT-Hist at N=128 on the ffthist256 DP mapping,
// whose second module receives the transpose edge.
func ffthistServed(t testing.TB) servedApp {
	r := FFTHistRunner{N: 128}
	return servedApp{
		name:    "ffthist",
		codec:   FFTHistCodec{Runner: r},
		mapping: specMapping(t, "ffthist256"),
		build:   r.Pipeline,
		input:   func(i int) string { return fmt.Sprintf(`{"seed":%d}`, i) },
		result:  histResult,
	}
}

// histResult copies the histogram an FFT-Hist request computed.
func histResult(out fxrt.DataSet) any {
	h := *out.(*kernels.Histogram)
	h.Bins = append([]int64(nil), h.Bins...)
	return h
}

// served is one request's outcome: what it computed, Encode's result, and
// the output data set as Encode left it.
type served struct {
	result, encoded any
	out             fxrt.DataSet
}

// request decodes input i, streams it and encodes the output, as the
// ingestion data plane handles one submit.
func (a servedApp) request(s *fxrt.Stream, i int) (served, error) {
	ds, err := a.codec.Decode(json.RawMessage(a.input(i)))
	if err != nil {
		return served{}, err
	}
	ch, err := s.Push(context.Background(), ds)
	if err != nil {
		return served{}, err
	}
	res := <-ch
	if res.Err != nil {
		return served{}, res.Err
	}
	got := served{result: a.result(res.DS), out: res.DS}
	got.encoded, err = a.codec.Encode(res.DS)
	return got, err
}

// serve streams inputs 0..n-1 from the given number of concurrent
// submitters, each with one request in flight, and returns the outcomes in
// input order plus the stream's statistics.
func (a servedApp) serve(t *testing.T, pl *fxrt.Pipeline, edges []fxrt.Edge, n, submitters int) ([]served, fxrt.Stats) {
	s, err := pl.Stream(fxrt.StreamOptions{Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]served, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				got, err := a.request(s, i)
				if err != nil {
					t.Errorf("%s request %d: %v", a.name, i, err)
				}
				out[i] = got
			}
		}()
	}
	wg.Wait()
	return out, s.Close()
}

// TestServingBuffersSurviveFaults streams radar and FFT-Hist requests
// concurrently on their DP mappings while the serving path recycles
// matrices, and checks every result bit for bit against a serial
// fault-free run: with a failed first attempt on the stage behind
// FFT-Hist's transpose edge and on radar's corner-turn stage (every retry
// re-reads the data set the failed attempt saw), and under stage
// deadlines, where an abandoned attempt may still be running and nothing
// may be recycled.
func TestServingBuffersSurviveFaults(t *testing.T) {
	const n = 16
	radar, ffthist := radarServed(t), ffthistServed(t)
	// faultStage is the stage each app's fault targets: radar's first
	// module holds the corner turn; FFT-Hist's second module receives the
	// transpose edge.
	apps := []struct {
		servedApp
		faultStage int
	}{{radar, 0}, {ffthist, 1}}

	type runResult struct {
		got      []served
		stats    fxrt.Stats
		releases int64
	}
	// run serves every app concurrently, each on a fresh pipeline that
	// setup may configure, counting the transpose edge's releases.
	run := func(submitters int, setup func(app int, pl *fxrt.Pipeline)) []runResult {
		res := make([]runResult, len(apps))
		var wg sync.WaitGroup
		for ai, a := range apps {
			pl, edges, err := a.build(a.mapping)
			if err != nil {
				t.Fatal(err)
			}
			var releases atomic.Int64
			for e := range edges {
				if rel := edges[e].Release; rel != nil {
					edges[e].Release = func(in fxrt.DataSet) {
						releases.Add(1)
						rel(in)
					}
				}
			}
			if setup != nil {
				setup(ai, pl)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, stats := a.serve(t, pl, edges, n, submitters)
				res[ai] = runResult{got, stats, releases.Load()}
			}()
		}
		wg.Wait()
		return res
	}
	want := run(1, nil)
	check := func(t *testing.T, res []runResult) {
		t.Helper()
		for ai, a := range apps {
			for i := range want[ai].got {
				w, g := want[ai].got[i], res[ai].got[i]
				if !reflect.DeepEqual(w.result, g.result) || !reflect.DeepEqual(w.encoded, g.encoded) {
					t.Errorf("%s request %d differs from the fault-free run\nwant %v\ngot  %v", a.name, i, w.encoded, g.encoded)
				}
			}
		}
	}

	t.Run("fail-once", func(t *testing.T) {
		res := run(3, func(ai int, pl *fxrt.Pipeline) {
			pl.Retry = fxrt.RetryPolicy{MaxRetries: 1}
			pl.Faults = []fxrt.Fault{{Stage: apps[ai].faultStage, Instance: -1, DataSet: -1,
				Kind: fxrt.FaultFail, Attempts: 1}}
		})
		check(t, res)
		for ai, a := range apps {
			if got := res[ai].stats.Retried; got != n {
				t.Errorf("%s: %d retries, want %d (one per request)", a.name, got, n)
			}
		}
		// Recycling happened: Encode released every radar data set's cubes
		// and Stream every transpose source.
		for i, g := range res[0].got {
			if rd := g.out.(*RadarData); rd.Cube.Data != nil || rd.spare.Data != nil {
				t.Errorf("radar request %d: cubes not released by Encode", i)
			}
		}
		if got := res[1].releases; got != n {
			t.Errorf("ffthist: %d transpose sources released, want %d", got, n)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// Abandon FFT-Hist's first attempt for data set 0 at the transpose
		// edge's receiver, then at colffts, which reads the decoded input:
		// it sleeps past the stage's own deadline, then runs on detached
		// while the retry completes the request.
		for _, stage := range []int{1, 0} {
			const maxRetries = 3
			// finished receives one value per returned attempt of the
			// stage, abandoned ones included; no data set makes more than
			// 1+maxRetries attempts.
			finished := make(chan struct{}, n*(1+maxRetries))
			res := run(3, func(ai int, pl *fxrt.Pipeline) {
				// Spare retries: a slow host may time out more attempts,
				// which only leaves more of them detached.
				pl.Retry = fxrt.RetryPolicy{MaxRetries: maxRetries}
				pl.StageDeadline = time.Minute
				if apps[ai].name == "ffthist" {
					pl.Stages[stage].Deadline = 300 * time.Millisecond
					pl.Faults = []fxrt.Fault{{Stage: stage, Instance: -1, DataSet: 0,
						Kind: fxrt.FaultSlow, Attempts: 1, Delay: 400 * time.Millisecond}}
					stageRun := pl.Stages[stage].Run
					pl.Stages[stage].Run = func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
						defer func() { finished <- struct{}{} }()
						return stageRun(ctx, in)
					}
				}
			})
			// Outwait the detached attempts: each data set ran the stage
			// once to completion and once per abandoned attempt, and an
			// abandoned colffts attempt still takes a matrix from the pool,
			// which would count against the next test's allocations.
			st := res[1].stats
			for i := range n - st.Dropped + st.Timeouts {
				select {
				case <-finished:
				case <-time.After(time.Minute):
					t.Fatalf("ffthist stage %d: %d attempts returned after a minute, want %d",
						stage, i, n-st.Dropped+st.Timeouts)
				}
			}
			check(t, res)
			if got := res[1].stats.Timeouts; got < 1 {
				t.Errorf("ffthist stage %d: %d timeouts, want an abandoned attempt", stage, got)
			}
			if got := res[1].releases; got != 0 {
				t.Errorf("ffthist stage %d: %d transpose sources released under stage deadlines, want 0", stage, got)
			}
			for i, g := range res[0].got {
				if rd := g.out.(*RadarData); rd.Cube.Data == nil {
					t.Errorf("radar request %d: cube recycled under stage deadlines", i)
				}
			}
		}
	})
}

// TestServingGarbagePerRequest measures the heap one served request
// allocates over decode, stream and encode, one request at a time after
// the pools are warm: at most 8 KB on radar (16x256) and on FFT-Hist
// (N=128) in each of its four clusterings, where allocating every cube and
// matrix afresh costs about 134 and 525 KB. The collector is off across
// the measured requests: a cycle there would empty the pools and charge
// their refill to the window.
func TestServingGarbagePerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const warm, n = 16, 64
	served := []servedApp{radarServed(t)}
	for _, cuts := range fftHistClusterings {
		// The DP mapping serves its own clustering.
		a := ffthistServed(t)
		dpCuts := []int{0}
		for _, mod := range a.mapping.Modules {
			dpCuts = append(dpCuts, mod.Hi)
		}
		if !slices.Equal(cuts, dpCuts) {
			a.mapping = clustered(a.mapping.Chain, cuts, 4, 2)
		}
		a.name += " " + a.mapping.String()
		served = append(served, a)
	}
	for _, a := range served {
		pl, edges, err := a.build(a.mapping)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pl.Stream(fxrt.StreamOptions{Edges: edges})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			if _, err := a.request(s, i); err != nil {
				t.Fatal(err)
			}
		}
		perReq, cycles := func() (uint64, uint32) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if _, err := a.request(s, warm+i); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / n, after.NumGC - before.NumGC
		}()
		s.Close()
		t.Logf("%s: %d B allocated per request, %d GC cycles over %d requests",
			a.name, perReq, cycles, n)
		if perReq > 8<<10 {
			t.Errorf("%s: %d B allocated per request, want <= 8 KB", a.name, perReq)
		}
	}
}

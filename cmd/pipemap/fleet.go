package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/fleet"
	"pipemap/internal/ingest"
	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// fleetConfig carries the -fleet serving knobs.
type fleetConfig struct {
	addr     string
	procs    int
	grid     machine.Grid
	serveFor time.Duration

	queueDepth   int
	shedDeadline time.Duration
	dispatchers  int
	ingestSize   int
}

// fleetTenant pairs one admitted pipeline with its live ingest plane.
type fleetTenant struct {
	name      string
	app       string
	id        int64
	plane     *ingest.Plane
	placedGen int64 // fleet generation of the mapping the plane runs
}

// fleetAppFor infers the application kernel from the spec's base name, the
// convention the specs/ directory follows (ffthist256, radar64, ...).
func fleetAppFor(name string) (string, error) {
	for _, app := range []string{"ffthist", "radar", "stereo"} {
		if strings.HasPrefix(name, app) {
			return app, nil
		}
	}
	return "", fmt.Errorf("-fleet: cannot infer the application from spec name %q (want an ffthist*, radar*, or stereo* prefix)", name)
}

// fleetRun is the -fleet serving mode: every spec file becomes a tenant
// pipeline admitted into one fleet scheduler sharing a single processor
// pool, each realized as a real kernel ingest plane with its own
// POST /v1/<tenant>/submit endpoint on one live server. /fleet serves the
// scheduler state; POST /fleet/fail kills processors, and the rebalanced
// mappings are live-swapped into the affected planes without dropping a
// request.
func fleetRun(ctx context.Context, stdout io.Writer, fc fleetConfig, specPaths []string) error {
	if len(specPaths) < 1 {
		return fmt.Errorf("-fleet: need at least one spec file argument")
	}

	type parsedSpec struct {
		name  string
		app   string
		chain *model.Chain
		pl    model.Platform
	}
	specs := make([]parsedSpec, 0, len(specPaths))
	pool := fc.procs
	memPerProc := 0.0
	for _, path := range specPaths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		chain, pl, err := core.ParseChainSpec(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		app, err := fleetAppFor(name)
		if err != nil {
			return err
		}
		specs = append(specs, parsedSpec{name: name, app: app, chain: chain, pl: pl})
		if fc.procs == 0 && pl.Procs > pool {
			pool = pl.Procs
		}
		// The pool's per-processor memory is the tightest spec's, so no
		// admitted pipeline assumes more memory than its spec allowed.
		if pl.MemPerProc > 0 && (memPerProc == 0 || pl.MemPerProc < memPerProc) {
			memPerProc = pl.MemPerProc
		}
	}

	reg := live.NewRegistry(live.Options{})
	fl, err := fleet.New(fleet.Config{
		Pool:     model.Platform{Procs: pool, MemPerProc: memPerProc},
		Grid:     fc.grid,
		Registry: reg,
	})
	if err != nil {
		return err
	}

	// Admit every tenant, then realize each placement as an ingest plane.
	var (
		mu      sync.Mutex
		tenants []*fleetTenant
	)
	ingestConfig := func() ingest.Config {
		return ingest.Config{
			Queue:         ingest.QueueConfig{Depth: fc.queueDepth},
			Dispatchers:   fc.dispatchers,
			DefaultBudget: fc.shedDeadline,
			LivenessFloor: ingestLivenessFloor,
			Registry:      reg,
		}
	}
	buildFor := func(t *fleetTenant, m model.Mapping) (*ingest.Plane, ingest.Codec, *live.Monitor, error) {
		sc := serveConfig{ingestApp: t.app, ingestSize: fc.ingestSize}
		pl, opts, codec, err := buildIngestApp(sc, nil, m)
		if err != nil {
			return nil, nil, nil, err
		}
		plane, err := ingest.New(ingestConfig(), pl, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return plane, codec, pl.Monitor, nil
	}
	drainAll := func() {
		mu.Lock()
		ts := append([]*fleetTenant(nil), tenants...)
		mu.Unlock()
		for _, t := range ts {
			if t.plane != nil {
				t.plane.Drain()
			}
		}
	}

	extra := map[string]http.Handler{}
	var firstMon *live.Monitor
	for _, s := range specs {
		p, err := fl.Admit(fleet.Spec{
			Tenant:   s.name,
			Chain:    s.chain,
			MaxProcs: s.pl.Procs,
		})
		if err != nil {
			drainAll()
			return err
		}
		t := &fleetTenant{name: s.name, app: s.app, id: p.ID, placedGen: p.Generation}
		plane, codec, mon, err := buildFor(t, p.Mapping)
		if err != nil {
			drainAll()
			return fmt.Errorf("%s: %w", s.name, err)
		}
		t.plane = plane
		if firstMon == nil {
			firstMon = mon
		}
		extra["/v1/"+t.name+"/submit"] = ingest.SubmitHandler(plane, codec)
		extra["/v1/"+t.name+"/ingest"] = ingest.StatusHandler(plane)
		mu.Lock()
		tenants = append(tenants, t)
		mu.Unlock()
	}

	// After a failure-triggered rebalance, move every surviving tenant
	// whose placement generation advanced onto its new mapping via a live
	// swap; evicted tenants are drained (their endpoint stays mounted but
	// the plane rejects new work once drained).
	onRebalance := func() {
		placed := map[int64]fleet.Placement{}
		for _, p := range fl.Placements() {
			placed[p.ID] = p
		}
		mu.Lock()
		ts := append([]*fleetTenant(nil), tenants...)
		mu.Unlock()
		for _, t := range ts {
			p, ok := placed[t.id]
			if !ok {
				fmt.Fprintf(stdout, "fleet: tenant %s evicted; draining its plane\n", t.name)
				t.plane.Drain()
				continue
			}
			if p.Generation == t.placedGen {
				continue
			}
			sc := serveConfig{ingestApp: t.app, ingestSize: fc.ingestSize}
			npl, nopts, _, err := buildIngestApp(sc, nil, p.Mapping)
			if err != nil {
				fmt.Fprintf(stdout, "fleet: tenant %s remap failed: %v\n", t.name, err)
				continue
			}
			if err := t.plane.Swap(npl, nopts); err != nil {
				fmt.Fprintf(stdout, "fleet: tenant %s swap failed: %v\n", t.name, err)
				continue
			}
			t.placedGen = p.Generation
			fmt.Fprintf(stdout, "fleet: tenant %s remapped to %d procs (generation %d)\n",
				t.name, p.Alloc, p.Generation)
		}
	}
	extra["/fleet"] = fleet.StateHandler(fl)
	extra["/fleet/fail"] = fleet.FailHandler(fl, onRebalance)

	srv := live.NewServer(live.ServerOptions{
		Monitor:  firstMon,
		Registry: reg,
		Extra:    extra,
	})
	if err := srv.Start(fc.addr); err != nil {
		drainAll()
		return err
	}
	defer srv.Close()

	st := fl.Stats()
	fmt.Fprintf(stdout, "fleet: %d pipeline(s) share a pool of %d processors (%d used, %.0f%% utilization)\n",
		st.Placed, st.PoolProcs, st.UsedProcs, 100*st.Utilization)
	for _, p := range fl.Placements() {
		fmt.Fprintf(stdout, "  %-12s %2d procs  %8.3f/s  %s\n", p.Tenant, p.Alloc, p.Throughput, p.Summary)
	}
	fmt.Fprintf(stdout, "fleet serving on http://%s (POST /v1/<tenant>/submit; /fleet /metrics; POST /fleet/fail?n=N)\n",
		srv.Addr())

	serveWait(ctx, stdout, fc.serveFor)

	fmt.Fprintln(stdout, "fleet draining: admission stopped on every plane")
	var flushed int64
	mu.Lock()
	ts := append([]*fleetTenant(nil), tenants...)
	mu.Unlock()
	for _, t := range ts {
		ds := t.plane.Drain()
		flushed += int64(ds.Flushed)
	}
	st = fl.Stats()
	fmt.Fprintf(stdout, "fleet drain complete: %d request(s) flushed; admitted %d, evicted %d, rebalances %d, cache hit rate %.2f\n",
		flushed, st.Admitted, st.Evicted, st.Rebalances, st.Cache.HitRate)
	return nil
}

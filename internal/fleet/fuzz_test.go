package fleet

import (
	"math/rand"
	"reflect"
	"testing"

	"pipemap/internal/adapt"
	"pipemap/internal/model"
)

// FuzzFleetCacheMatchesFresh is the differential fuzz target: for a random
// spec and pool slice, a fleet-cache hit must return a placement
// bit-identical to a fresh, uncached adapt.Resolve of the same spec on the
// same slice — same modules, same predicted throughput and latency. The
// slice doubles as an allocation cap: a placement at a random allocation
// below it, read from the cap solve's per-budget frontier, must equal a
// fresh adapt.Resolve at that allocation, on the first read and on the
// memo hit after it. A divergence means the canonical key is collapsing
// specs it must not, the memo is returning stale state, or the frontier
// disagrees with a fresh solve.
func FuzzFleetCacheMatchesFresh(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1995} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		chain := genChain(rng, 2+rng.Intn(5))
		pl := model.Platform{Procs: 4 + rng.Intn(29)}
		var opt adapt.ResolveOptions

		cache := NewCache()
		first, firstPath, err := cache.Solve(chain, pl, opt)
		fresh, _, freshErr := adapt.Resolve(chain, pl, opt)
		if (err != nil) != (freshErr != nil) {
			t.Fatalf("seed %d: cached error %v vs fresh error %v", seed, err, freshErr)
		}
		if err != nil {
			return
		}
		if firstPath == adapt.PathMemo {
			t.Fatalf("seed %d: first solve through an empty cache reported a memo hit", seed)
		}

		hit, hitPath, err := cache.Solve(chain, pl, opt)
		if err != nil {
			t.Fatalf("seed %d: cache-hit solve: %v", seed, err)
		}
		if hitPath != adapt.PathMemo {
			t.Fatalf("seed %d: second identical solve took path %q, want %q", seed, hitPath, adapt.PathMemo)
		}

		for name, got := range map[string]*model.Mapping{"first": &first.Mapping, "hit": &hit.Mapping} {
			if !reflect.DeepEqual(got.Modules, fresh.Mapping.Modules) {
				t.Fatalf("seed %d: %s placement diverges from fresh solve:\n cached: %v\n fresh:  %v",
					seed, name, got, &fresh.Mapping)
			}
		}
		if hit.Throughput != fresh.Throughput || hit.Latency != fresh.Latency {
			t.Fatalf("seed %d: cache hit metrics (%v, %v) != fresh (%v, %v)",
				seed, hit.Throughput, hit.Latency, fresh.Throughput, fresh.Latency)
		}

		// The hit's modules must be a detached copy: mutating them must not
		// poison the memo for the next tenant.
		if len(hit.Mapping.Modules) > 0 {
			hit.Mapping.Modules[0].Procs = -1
			again, _, err := cache.Solve(chain, pl, opt)
			if err != nil {
				t.Fatalf("seed %d: post-mutation solve: %v", seed, err)
			}
			if !reflect.DeepEqual(again.Mapping.Modules, fresh.Mapping.Modules) {
				t.Fatalf("seed %d: memo poisoned by caller mutation", seed)
			}
		}

		// The same spec placed below its cap, from the cap's frontier.
		alloc := 1 + rng.Intn(pl.Procs)
		sig, key := adapt.CanonicalStructSig(chain, pl, opt), adapt.CanonicalSpecKey(chain, pl, opt)
		freshAt, _, freshAtErr := adapt.Resolve(chain, model.Platform{Procs: alloc}, opt)
		for i, wantPath := range []string{"", adapt.PathMemo} {
			got, path, err := cache.SolveBudget(chain, pl, opt, sig, key, alloc)
			if (err != nil) != (freshAtErr != nil) {
				t.Fatalf("seed %d: cap %d alloc %d: frontier error %v vs fresh error %v",
					seed, pl.Procs, alloc, err, freshAtErr)
			}
			if wantPath != "" && path != wantPath {
				t.Fatalf("seed %d: frontier read %d took path %q, want %q", seed, i, path, wantPath)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got.Mapping.Modules, freshAt.Mapping.Modules) ||
				got.Throughput != freshAt.Throughput || got.Latency != freshAt.Latency {
				t.Fatalf("seed %d: cap %d alloc %d: frontier placement diverges from fresh solve:\n frontier: %v\n fresh:    %v",
					seed, pl.Procs, alloc, &got.Mapping, &freshAt.Mapping)
			}
			if len(got.Mapping.Modules) > 0 {
				got.Mapping.Modules[0].Procs = -1 // must not poison the frontier
			}
		}
	})
}

package fleet

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/machine"
	"pipemap/internal/model"
)

// FuzzFleetCacheMatchesFresh is the differential fuzz target: for a random
// spec and pool slice, a fleet-cache hit must return a placement
// bit-identical to a fresh, uncached core.Map of the same spec on the
// same slice — same modules, same predicted throughput and latency. The
// slice doubles as an allocation cap: a placement at a random allocation
// below it, keyed by the cap, must equal a fresh core.Map at that
// allocation, on the first read and on the memo hit after it. Half the
// caps lie beyond the point where core.AutoAlgorithm routes the spec to
// greedy, so both the per-budget frontier of a DP cap and the per-budget
// solves of a greedy cap, DP or greedy at the allocation, are checked. A
// divergence means the canonical key is collapsing specs it must not, the
// memo is returning stale state, or a budget read disagrees with a fresh
// solve.
func FuzzFleetCacheMatchesFresh(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1995} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		chain := genChain(rng, k)
		pl := model.Platform{Procs: 4 + rng.Intn(29)}
		if rng.Intn(2) == 0 {
			greedyFrom := 1
			for core.AutoAlgorithm(k, greedyFrom) == core.DP {
				greedyFrom++
			}
			pl.Procs = greedyFrom + rng.Intn(8)
		}
		dpCap := core.AutoAlgorithm(k, pl.Procs) == core.DP
		sig, key := adapt.CanonicalKeys(chain, pl)

		cache := NewCache()
		first, firstPath, err := cache.Solve(chain, pl, sig, key, pl.Procs)
		fresh, freshErr := freshSolve(chain, pl)
		if (err != nil) != (freshErr != nil) {
			t.Fatalf("seed %d: cached error %v vs fresh error %v", seed, err, freshErr)
		}
		if err != nil {
			return
		}
		if firstPath == adapt.PathMemo {
			t.Fatalf("seed %d: first solve through an empty cache reported a memo hit", seed)
		}

		hit, hitPath, err := cache.Solve(chain, pl, sig, key, pl.Procs)
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
			again, _, err := cache.Solve(chain, pl, sig, key, pl.Procs)
			if err != nil {
				t.Fatalf("seed %d: post-mutation solve: %v", seed, err)
			}
			if !reflect.DeepEqual(again.Mapping.Modules, fresh.Mapping.Modules) {
				t.Fatalf("seed %d: memo poisoned by caller mutation", seed)
			}
		}

		// The same spec placed below its cap, keyed by the cap.
		alloc := 1 + rng.Intn(pl.Procs)
		freshAt, freshAtErr := freshSolve(chain, model.Platform{Procs: alloc})
		for i, wantPath := range []string{"", adapt.PathMemo} {
			got, path, err := cache.Solve(chain, pl, sig, key, alloc)
			if (err != nil) != (freshAtErr != nil) {
				t.Fatalf("seed %d: cap %d alloc %d: budget read error %v vs fresh error %v",
					seed, pl.Procs, alloc, err, freshAtErr)
			}
			// A budget no mapping fits is memoized as a gap in a DP cap's
			// frontier; a greedy cap's failed solve is not memoized.
			if wantPath != "" && path != wantPath && (err == nil || dpCap) {
				t.Fatalf("seed %d: budget read %d took path %q, want %q", seed, i, path, wantPath)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got.Mapping.Modules, freshAt.Mapping.Modules) ||
				got.Throughput != freshAt.Throughput || got.Latency != freshAt.Latency ||
				got.Algorithm != freshAt.Algorithm {
				t.Fatalf("seed %d: cap %d alloc %d: budget read diverges from fresh solve:\n cached: %v (%v)\n fresh:  %v (%v)",
					seed, pl.Procs, alloc, &got.Mapping, got.Algorithm, &freshAt.Mapping, freshAt.Algorithm)
			}
			if len(got.Mapping.Modules) > 0 {
				got.Mapping.Modules[0].Procs = -1 // must not poison the memo
			}
		}
	})
}

// FuzzFailHandler drives POST /fleet/fail — the handler that takes
// processors away from a live fleet — with arbitrary methods, raw queries
// and bodies, twice per input, against a fresh 8-processor fleet holding
// two tenants. The handler must never panic, must answer 200, 400, 405 or
// 409, and must leave the fleet accounted (admitted == placed + departed +
// evicted) with every placement inside the surviving pool.
func FuzzFailHandler(f *testing.F) {
	for _, in := range [][3]string{
		{"POST", "", ""}, {"POST", "n=1", ""}, {"POST", "n=3", "{}"}, {"POST", "n=7", ""},
		{"POST", "n=8", ""}, {"POST", "n=0", ""}, {"POST", "n=-2", ""}, {"POST", "n=abc", ""},
		{"POST", "n=9223372036854775807", ""}, {"POST", "n=99999999999999999999", ""},
		{"POST", "n=2&n=5", "n=4"}, {"POST", "n=%zz;x", "garbage"}, {"GET", "n=1", ""},
		{"", "", ""}, {"post", "n=1", ""}, {"DELETE", "n=1", "{}"},
	} {
		f.Add(in[0], in[1], in[2])
	}
	f.Fuzz(func(t *testing.T, method, query, body string) {
		fl, err := New(Config{Pool: model.Platform{Procs: 8}})
		if err != nil {
			t.Fatal(err)
		}
		for _, tenant := range []string{"a", "b"} {
			if _, err := fl.Admit(Spec{Tenant: tenant, Chain: fixedChain()}); err != nil {
				t.Fatal(err)
			}
		}
		rebalances := 0
		h := FailHandler(fl, func() { rebalances++ })
		for call := 1; call <= 2; call++ {
			req := &http.Request{
				Method: method,
				URL:    &url.URL{Path: "/fleet/fail", RawQuery: query},
				Header: http.Header{},
				Body:   io.NopCloser(strings.NewReader(body)),
			}
			rec := httptest.NewRecorder()
			before := rebalances
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				if rebalances != before+1 {
					t.Fatalf("call %d: 200 after %d rebalance callbacks, want 1", call, rebalances-before)
				}
				var st State
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("call %d: 200 body is not the fleet state: %v", call, err)
				}
			case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusConflict:
				if rebalances != before {
					t.Fatalf("call %d: status %d ran the rebalance callback", call, rec.Code)
				}
			default:
				t.Fatalf("call %d: %s %q answered %d, want 200, 400, 405 or 409", call, method, query, rec.Code)
			}
			if err := checkAccounting(fl.Stats()); err != nil {
				t.Fatalf("call %d: %v", call, err)
			}
			if err := checkPlacements(fl, machine.Grid{}); err != nil {
				t.Fatalf("call %d: %v", call, err)
			}
		}
	})
}

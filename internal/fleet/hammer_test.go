package fleet

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// TestHammerConcurrentChurn is the -race battery: many goroutines admit,
// depart, inject processor failures/restores, and read state concurrently.
// At quiesce the accounting invariant admitted == placed + departed +
// evicted must hold exactly, every surviving placement must be
// machine-feasible, and no goroutines may leak.
func TestHammerConcurrentChurn(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	reg := live.NewRegistry(live.Options{})
	f, err := New(Config{Pool: model.Platform{Procs: 48}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	const (
		admitters = 4
		departers = 2
		chaos     = 2
		readers   = 2
		perWorker = 30
	)
	var (
		wg       sync.WaitGroup
		idMu     sync.Mutex
		ids      []int64
		departed int64 // departures this test performed successfully
	)
	popID := func(rng *rand.Rand) (int64, bool) {
		idMu.Lock()
		defer idMu.Unlock()
		if len(ids) == 0 {
			return 0, false
		}
		i := rng.Intn(len(ids))
		id := ids[i]
		ids = append(ids[:i], ids[i+1:]...)
		return id, true
	}

	for w := 0; w < admitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				s := Spec{
					Tenant:   "hammer",
					Chain:    genChain(rng, 2+rng.Intn(3)),
					Priority: 1 + rng.Intn(3),
					MaxProcs: 4 + rng.Intn(12),
				}
				if p, err := f.Admit(s); err == nil {
					idMu.Lock()
					ids = append(ids, p.ID)
					idMu.Unlock()
				}
			}
		}(w)
	}
	for w := 0; w < departers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < perWorker; i++ {
				if id, ok := popID(rng); ok {
					if err := f.Depart(id); err == nil {
						atomic.AddInt64(&departed, 1)
					}
				}
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}(w)
	}
	for w := 0; w < chaos; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 200))
			for i := 0; i < perWorker; i++ {
				if rng.Intn(2) == 0 {
					_ = f.FailProcs(1 + rng.Intn(3))
				} else {
					_ = f.RestoreProcs(1 + rng.Intn(3))
				}
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker*2; i++ {
				st := f.Stats()
				if st.UsedProcs > st.PoolProcs {
					t.Errorf("reader saw over-allocation: used %d > pool %d", st.UsedProcs, st.PoolProcs)
					return
				}
				for _, p := range f.Placements() {
					// Snapshots must be detached: scribbling on them is
					// invisible to the fleet (the race detector enforces
					// it found no sharing).
					p.Mapping.Modules = append(p.Mapping.Modules, model.Module{})
				}
				_ = f.State()
				_ = f.Cache().Stats()
			}
		}(w)
	}
	wg.Wait()

	st := f.Stats()
	if err := checkAccounting(st); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&departed); st.Departed != got {
		t.Fatalf("fleet counted %d departures, test performed %d", st.Departed, got)
	}
	if st.Admitted == 0 {
		t.Fatal("hammer admitted nothing; the test exercised no interesting schedule")
	}
	if err := checkPlacements(f, machine.Grid{}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHammerConcurrentCacheSolves races many goroutines through one Cache
// on a mix of identical and distinct specs: results must stay detached and
// the counters coherent (hits+misses == lookups).
func TestHammerConcurrentCacheSolves(t *testing.T) {
	cache := NewCache()
	shared := fixedChain()
	pl := model.Platform{Procs: 16}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	var lookups int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				chain := shared
				if rng.Intn(2) == 0 {
					chain = genChain(rng, 2+rng.Intn(3))
				}
				res, _, err := solveAtCap(cache, chain, pl)
				atomic.AddInt64(&lookups, 1)
				if err != nil {
					continue
				}
				if len(res.Mapping.Modules) > 0 {
					res.Mapping.Modules[0].Procs = -99 // must not poison the memo
				}
			}
		}(w)
	}
	wg.Wait()

	res, _, err := solveAtCap(cache, shared, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Mapping.Modules {
		if m.Procs < 0 {
			t.Fatal("memo poisoned by concurrent caller mutation")
		}
	}
	cs := cache.Stats()
	if cs.Hits+cs.Misses != atomic.LoadInt64(&lookups)+1 {
		t.Fatalf("cache counters incoherent: %d hits + %d misses != %d lookups",
			cs.Hits, cs.Misses, lookups+1)
	}
}

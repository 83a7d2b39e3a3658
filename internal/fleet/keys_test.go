package fleet

import (
	"math"
	"os"
	"reflect"
	"testing"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/model"
)

// loadSpec parses the committed spec specs/name.json.
func loadSpec(t testing.TB, name string) (*model.Chain, model.Platform) {
	t.Helper()
	fh, err := os.Open("../../specs/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	c, pl, err := core.ParseChainSpec(fh)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c, pl
}

// offGridComm equals f on the points in on and differs everywhere else.
type offGridComm struct {
	f  model.CommFunc
	on map[[2]int]bool
}

func (o offGridComm) Eval(ps, pr int) float64 {
	v := o.f.Eval(ps, pr)
	if !o.on[[2]int{ps, pr}] {
		v = 2*v + 1
	}
	return v
}

// nudgedComm is f moved up by one ulp at the single point at.
type nudgedComm struct {
	f  model.CommFunc
	at [2]int
}

func (n nudgedComm) Eval(ps, pr int) float64 {
	v := n.f.Eval(ps, pr)
	if [2]int{ps, pr} == n.at {
		return math.Nextafter(v, math.Inf(1))
	}
	return v
}

// withECom returns c with edge e's transfer cost replaced by f.
func withECom(c *model.Chain, e int, f model.CommFunc) *model.Chain {
	ecom := append([]model.CommFunc(nil), c.ECom...)
	ecom[e] = f
	return &model.Chain{Tasks: c.Tasks, ICom: c.ICom, ECom: ecom}
}

// TestCanonicalKeysExactOnTheGrid checks both directions of the canonical
// keys' exactness. A twin whose transfer costs equal the spec's on
// dp.CommGrid's points but differ off them is the same instance to every
// solver: it gets the same keys, the fleet solves the pair once, and the
// twin's placement equals a fresh core.Map of the twin. Moving any single
// grid point by one ulp changes both keys.
func TestCanonicalKeysExactOnTheGrid(t *testing.T) {
	const pool, maxProcs = 64, 32
	for _, name := range []string{"radar64", "ffthist256", "stereo128"} {
		c, spl := loadSpec(t, name)
		capPl := model.Platform{Procs: maxProcs, MemPerProc: spl.MemPerProc}
		grid := make([][][2]int, len(c.ECom))
		dp.CommGrid(c, capPl, dp.Options{}, func(e int, send, recv []int) {
			for _, ps := range send {
				for _, pr := range recv {
					grid[e] = append(grid[e], [2]int{ps, pr})
				}
			}
		})
		twin := c
		for e, pts := range grid {
			on := map[[2]int]bool{}
			for _, p := range pts {
				on[p] = true
			}
			twin = withECom(twin, e, offGridComm{f: c.ECom[e], on: on})
		}
		sig, key := adapt.CanonicalKeys(c, capPl)
		if tsig, tkey := adapt.CanonicalKeys(twin, capPl); tsig != sig || tkey != key {
			t.Fatalf("%s: off-grid twin keys (%#x, %#x), spec (%#x, %#x)", name, tsig, tkey, sig, key)
		}

		f, err := New(Config{Pool: model.Platform{Procs: pool, MemPerProc: spl.MemPerProc}})
		if err != nil {
			t.Fatal(err)
		}
		var placed [2]Placement
		for i, ch := range []*model.Chain{c, twin} {
			if placed[i], err = f.Admit(Spec{Tenant: name, Chain: ch, MaxProcs: maxProcs}); err != nil {
				t.Fatalf("%s: admit %d: %v", name, i, err)
			}
		}
		if st := f.Cache().Stats(); st.FullSolves+st.IncrementalSolves != 1 {
			t.Errorf("%s: %d full and %d incremental solves for the spec and its twin, want one solve",
				name, st.FullSolves, st.IncrementalSolves)
		}
		for _, p := range f.Placements() {
			if p.Key != key {
				t.Errorf("%s: pipeline %d key %#x, want %#x", name, p.ID, p.Key, key)
			}
		}
		tp := f.Placements()[1]
		fresh, err := freshSolve(twin, model.Platform{Procs: tp.Alloc, MemPerProc: spl.MemPerProc})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tp.Mapping.Modules, fresh.Mapping.Modules) {
			t.Errorf("%s: twin placed %s, a fresh core.Map of it returns %s", name, tp.Summary, fresh.Mapping.String())
		}

		for e, pts := range grid {
			for _, p := range pts {
				nsig, nkey := adapt.CanonicalKeys(withECom(c, e, nudgedComm{f: c.ECom[e], at: p}), capPl)
				if nsig == sig || nkey == key {
					t.Fatalf("%s: edge %d moved by one ulp at %v keeps the keys", name, e, p)
				}
			}
		}
	}
}

package machine

import (
	"strings"
	"testing"

	"pipemap/internal/apps"
	"pipemap/internal/dp"
	"pipemap/internal/model"
)

func TestRectDims(t *testing.T) {
	g := Grid{Rows: 8, Cols: 8}
	cases := []struct {
		p    int
		want int // number of factorizations
	}{
		{1, 1},  // 1x1
		{4, 3},  // 1x4, 2x2, 4x1
		{13, 0}, // prime > 8: no rectangle fits
		{64, 1}, // 8x8
		{12, 4}, // 2x6, 3x4, 4x3, 6x2 (1x12 and 12x1 do not fit)
		{16, 3}, // 2x8, 4x4, 8x2
	}
	for _, c := range cases {
		if got := len(g.RectDims(c.p)); got != c.want {
			t.Errorf("RectDims(%d) has %d options, want %d: %v", c.p, got, c.want, g.RectDims(c.p))
		}
	}
	if !g.CanFormRect(6) || g.CanFormRect(13) {
		t.Error("CanFormRect misbehaves for 6 or 13")
	}
	// Most-square ordering.
	if d := g.RectDims(16)[0]; d != [2]int{4, 4} {
		t.Errorf("RectDims(16)[0] = %v, want [4 4]", d)
	}
}

func TestGridValidate(t *testing.T) {
	if (Grid{Rows: 0, Cols: 8}).Validate() == nil {
		t.Error("degenerate grid accepted")
	}
	if (Grid{Rows: 8, Cols: 8}).Validate() != nil {
		t.Error("valid grid rejected")
	}
}

// tableOneChain is a 2-module chain shaped like the paper's FFT-Hist
// mapping: module procs and replicas are set per test.
func twoModuleMapping(p1, r1, p2, r2 int) model.Mapping {
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "m1", Exec: model.PolyExec{C2: 1}, Replicable: true},
			{Name: "m2", Exec: model.PolyExec{C2: 1}, Replicable: true},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.PolyComm{C1: 0.1}},
	}
	return model.Mapping{Chain: c, Modules: []model.Module{
		{Lo: 0, Hi: 1, Procs: p1, Replicas: r1},
		{Lo: 1, Hi: 2, Procs: p2, Replicas: r2},
	}}
}

func TestPackPaperMapping(t *testing.T) {
	// Table 1, row 1: 8 instances of 3 processors + 10 instances of 4
	// processors exactly fill the 8x8 iWarp array.
	m := twoModuleMapping(3, 8, 4, 10)
	layout, ok := Pack(m, Grid{Rows: 8, Cols: 8})
	if !ok {
		t.Fatal("paper's 256x256 message mapping did not pack")
	}
	if len(layout.Instances) != 18 {
		t.Fatalf("packed %d instances, want 18", len(layout.Instances))
	}
	// Disjointness and bounds.
	occ := map[[2]int]bool{}
	for _, pi := range layout.Instances {
		for r := pi.Row; r < pi.Row+pi.H; r++ {
			for c := pi.Col; c < pi.Col+pi.W; c++ {
				if r < 0 || r >= 8 || c < 0 || c >= 8 {
					t.Fatalf("instance out of bounds: %+v", pi)
				}
				if occ[[2]int{r, c}] {
					t.Fatalf("overlap at (%d,%d)", r, c)
				}
				occ[[2]int{r, c}] = true
			}
		}
	}
	if len(occ) != 64 {
		t.Errorf("covered %d cells, want 64", len(occ))
	}
}

func TestPackRejectsNonRectangleArea(t *testing.T) {
	// 13 is prime and exceeds both grid dimensions.
	m := twoModuleMapping(13, 1, 4, 1)
	if _, ok := Pack(m, Grid{Rows: 8, Cols: 8}); ok {
		t.Error("13-processor rectangle packed on an 8x8 grid")
	}
}

func TestPackRejectsOverCapacity(t *testing.T) {
	m := twoModuleMapping(8, 5, 8, 4) // 72 > 64
	if _, ok := Pack(m, Grid{Rows: 8, Cols: 8}); ok {
		t.Error("over-capacity mapping packed")
	}
}

func TestPackAllowsWaste(t *testing.T) {
	// 62 of 64 cells used (paper's 256 systolic case: 3x6 + 4x11 = 62).
	m := twoModuleMapping(3, 6, 4, 11)
	if _, ok := Pack(m, Grid{Rows: 8, Cols: 8}); !ok {
		t.Error("62-cell mapping failed to pack on 64 cells")
	}
}

func TestLayoutString(t *testing.T) {
	m := twoModuleMapping(4, 1, 4, 1)
	layout, ok := Pack(m, Grid{Rows: 4, Cols: 4})
	if !ok {
		t.Fatal("simple mapping failed to pack")
	}
	s := layout.String()
	if !strings.Contains(s, "A") || !strings.Contains(s, "B") {
		t.Errorf("layout rendering missing modules:\n%s", s)
	}
}

func TestCheckPathways(t *testing.T) {
	m := twoModuleMapping(4, 2, 4, 2)
	layout, ok := Pack(m, Grid{Rows: 4, Cols: 4})
	if !ok {
		t.Fatal("failed to pack")
	}
	rep := CheckPathways(m, layout, 4)
	// gcd(2,2)=2: pairs (0,0) and (1,1) -> 2 pathways.
	if rep.Pathways != 2 {
		t.Errorf("routed %d pathways, want 2", rep.Pathways)
	}
	if !rep.Feasible {
		t.Errorf("2 pathways reported infeasible: %+v", rep)
	}
	// Capacity 0 uses the default.
	rep0 := CheckPathways(m, layout, 0)
	if rep0.MaxLoad != rep.MaxLoad {
		t.Errorf("default capacity changed load: %+v vs %+v", rep0, rep)
	}
}

func TestPathwayPairsFollowGCD(t *testing.T) {
	m := twoModuleMapping(1, 3, 1, 2)
	layout, ok := Pack(m, Grid{Rows: 3, Cols: 3})
	if !ok {
		t.Fatal("failed to pack")
	}
	rep := CheckPathways(m, layout, 8)
	// gcd(3,2)=1: all 6 pairs communicate.
	if rep.Pathways != 6 {
		t.Errorf("routed %d pathways, want 6", rep.Pathways)
	}
}

func TestFeasibleOptimalAdjustsInfeasibleOptimum(t *testing.T) {
	// A chain whose unconstrained optimum gives a module 13 processors;
	// the feasible search must settle on a rectangle-formable count
	// (mirrors Table 1's 512 systolic row where 13 -> 12).
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 3}},
			{Name: "b", Exec: model.PolyExec{C2: 13}},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	pl := model.Platform{Procs: 16}
	opt := dp.Options{DisableClustering: true, DisableReplication: true}
	um, err := dp.MapChain(c, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if um.Modules[1].Procs != 13 {
		t.Fatalf("unconstrained optimum gave %d procs, test wants 13", um.Modules[1].Procs)
	}
	fm, layout, err := FeasibleOptimal(c, pl, Constraints{Grid: Grid{Rows: 4, Cols: 4}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Modules[1].Procs == 13 {
		t.Errorf("feasible search kept a non-rectangular 13: %v", &fm)
	}
	if fm.Throughput() > um.Throughput() {
		t.Errorf("feasible %g beats unconstrained optimum %g", fm.Throughput(), um.Throughput())
	}
	if len(layout.Instances) == 0 {
		t.Error("no layout returned")
	}
}

// TestFeasibleOptimalTiesPreferFewestProcessors pins the tie-break among
// candidates of equal throughput on the radar and stereo chains of
// specs/radar64.json and specs/stereo128.json. Replicating radar's first
// module past 3 instances, or splitting stereo's last two tasks, leaves
// the throughput unchanged; every grid must get the variant with the
// fewest processors, not whichever the enumeration met first.
func TestFeasibleOptimalTiesPreferFewestProcessors(t *testing.T) {
	radar := model.Platform{Procs: 64, MemPerProc: 0.5}
	stereo := model.Platform{Procs: 64, MemPerProc: 4}
	for _, tc := range []struct {
		name  string
		c     *model.Chain
		pl    model.Platform
		grid  Grid
		procs int
	}{
		{"radar64 8x8", apps.Radar(), radar, Grid{Rows: 8, Cols: 8}, 13},
		{"radar64 8x4", apps.Radar(), radar, Grid{Rows: 8, Cols: 4}, 13},
		{"radar64 4x4", apps.Radar(), radar, Grid{Rows: 4, Cols: 4}, 13},
		{"stereo128 8x8", apps.Stereo(), stereo, Grid{Rows: 8, Cols: 8}, 24},
		{"stereo128 8x4", apps.Stereo(), stereo, Grid{Rows: 8, Cols: 4}, 24},
		{"stereo128 4x4", apps.Stereo(), stereo, Grid{Rows: 4, Cols: 4}, 15},
	} {
		for _, systolic := range []bool{false, true} {
			m, _, err := FeasibleOptimal(tc.c, tc.pl, Constraints{Grid: tc.grid, Systolic: systolic}, dp.Options{})
			if err != nil {
				t.Fatalf("%s systolic=%v: %v", tc.name, systolic, err)
			}
			if got := m.TotalProcs(); got != tc.procs {
				t.Errorf("%s systolic=%v: %v uses %d processors, want %d", tc.name, systolic, &m, got, tc.procs)
			}
		}
	}
}

func TestFeasibleOptimalMatchesUnconstrainedWhenPackable(t *testing.T) {
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 8}, Replicable: true},
			{Name: "b", Exec: model.PolyExec{C2: 8}, Replicable: true},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	pl := model.Platform{Procs: 16}
	um, err := dp.MapChain(c, pl, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fm, _, err := FeasibleOptimal(c, pl, Constraints{Grid: Grid{Rows: 4, Cols: 4}}, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fm.Throughput() < um.Throughput()*0.999 {
		t.Errorf("feasible optimum %g below unconstrained %g", fm.Throughput(), um.Throughput())
	}
}

func TestFeasibleOptimalErrors(t *testing.T) {
	bad := &model.Chain{}
	if _, _, err := FeasibleOptimal(bad, model.Platform{Procs: 4},
		Constraints{Grid: Grid{Rows: 2, Cols: 2}}, dp.Options{}); err == nil {
		t.Error("invalid chain accepted")
	}
	c := &model.Chain{
		Tasks: []model.Task{{Name: "x", Exec: model.PolyExec{C2: 1}, MinProcs: 9}},
	}
	if _, _, err := FeasibleOptimal(c, model.Platform{Procs: 4},
		Constraints{Grid: Grid{Rows: 2, Cols: 2}}, dp.Options{}); err == nil {
		t.Error("unmappable chain accepted")
	}
}

func TestRectCenter(t *testing.T) {
	r := Rect{Row: 2, Col: 4, H: 3, W: 1}
	cr, cc := r.Center()
	if cr != 3 || cc != 4 {
		t.Errorf("Center = (%g,%g), want (3,4)", cr, cc)
	}
}

func TestTorusRoutingShorterThanMesh(t *testing.T) {
	// Two instances at opposite edges of the grid: a torus route wraps
	// around and uses fewer links than the mesh route.
	g := Grid{Rows: 8, Cols: 8}
	m := twoModuleMapping(8, 1, 8, 1)
	layout := Layout{Grid: g, Instances: []PlacedInstance{
		{Module: 0, Instance: 0, Rect: Rect{Row: 0, Col: 0, H: 1, W: 8}},
		{Module: 1, Instance: 0, Rect: Rect{Row: 7, Col: 0, H: 1, W: 8}},
	}}
	mesh := RoutePathways(m, layout, RoutingOptions{Capacity: 100})
	torus := RoutePathways(m, layout, RoutingOptions{Capacity: 100, Torus: true})
	if mesh.Pathways != 1 || torus.Pathways != 1 {
		t.Fatalf("pathway counts %d/%d, want 1/1", mesh.Pathways, torus.Pathways)
	}
	// Mesh walks 7 row links; torus walks 1 (wraparound). Compare total
	// link loads via MaxLoad on a single path: both 1, so instead count by
	// routing two opposite-corner paths... simply assert feasibility and
	// rely on stepTorus unit behaviour below.
	if !mesh.Feasible || !torus.Feasible {
		t.Error("single pathway infeasible")
	}
}

func TestStepTorusChoosesShortSide(t *testing.T) {
	count := func(a, b, n int) int {
		c := 0
		stepTorus(a, b, n, func(int) { c++ })
		return c
	}
	if got := count(0, 7, 8); got != 1 {
		t.Errorf("0->7 on ring of 8 took %d links, want 1 (wraparound)", got)
	}
	if got := count(0, 3, 8); got != 3 {
		t.Errorf("0->3 took %d links, want 3", got)
	}
	if got := count(6, 1, 8); got != 3 {
		t.Errorf("6->1 took %d links, want 3 (wraparound)", got)
	}
	if got := count(4, 4, 8); got != 0 {
		t.Errorf("self route took %d links", got)
	}
	if got := count(0, 4, 8); got != 4 {
		t.Errorf("antipodal route took %d links, want 4", got)
	}
	if got := count(0, 1, 1); got != 0 {
		t.Errorf("degenerate ring took %d links", got)
	}
}

func TestFeasibleWithTorusAtLeastAsPermissive(t *testing.T) {
	// Wraparound can only shorten routes, so torus feasibility is implied
	// by mesh feasibility for any capacity.
	m := twoModuleMapping(4, 2, 4, 2)
	g := Grid{Rows: 4, Cols: 4}
	layout, ok := Pack(m, g)
	if !ok {
		t.Fatal("failed to pack")
	}
	for cap := 1; cap <= 4; cap++ {
		mesh := RoutePathways(m, layout, RoutingOptions{Capacity: cap})
		torus := RoutePathways(m, layout, RoutingOptions{Capacity: cap, Torus: true})
		if mesh.Feasible && !torus.Feasible {
			t.Errorf("cap %d: mesh feasible but torus not (loads %d vs %d)",
				cap, mesh.MaxLoad, torus.MaxLoad)
		}
	}
}

func TestLayoutStats(t *testing.T) {
	m := twoModuleMapping(3, 8, 4, 10)
	layout, ok := Pack(m, Grid{Rows: 8, Cols: 8})
	if !ok {
		t.Fatal("failed to pack")
	}
	st := layout.Stats()
	if st.Instances != 18 || st.CellsUsed != 64 {
		t.Errorf("stats %+v, want 18 instances / 64 cells", st)
	}
	if st.MeanNeighborDist <= 0 || st.MaxNeighborDist < st.MeanNeighborDist {
		t.Errorf("distance stats inconsistent: %+v", st)
	}
	// On an 8x8 grid no Manhattan distance exceeds 14.
	if st.MaxNeighborDist > 14 {
		t.Errorf("max distance %g impossible on 8x8", st.MaxNeighborDist)
	}
	if (Layout{}).Stats().Instances != 0 {
		t.Error("empty layout stats")
	}
}

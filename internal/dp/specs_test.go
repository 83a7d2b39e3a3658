package dp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// specNames are the committed chain specs under specs/.
var specNames = []string{"radar64", "ffthist256", "stereo128", "threestage"}

// loadSpec parses the committed spec specs/name.json.
func loadSpec(t *testing.T, name string) (*model.Chain, model.Platform) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "specs", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, pl, err := core.ParseChainSpec(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c, pl
}

// TestSolverMatchesReferenceOnSpecs checks the Solver against the plain
// recurrence on the four committed specs at P=64 (threestage's own is 32),
// under the three option sets: every budget's period, bit for bit.
func TestSolverMatchesReferenceOnSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("the dense reference tables take tens of MB at P=64")
	}
	for _, name := range specNames {
		c, pl := loadSpec(t, name)
		pl.Procs = 64
		for i, opt := range dp.ReferenceOptions {
			dp.CheckAgainstReference(t, fmt.Sprintf("%s options %d", name, i), c, pl, opt)
		}
	}
}

// TestTransferTableSize pins the transfer table to the points a solve
// reads: one row of P+1 per count in E_{e+1} for each edge e, where the
// dense table held (P+1)^2 per edge. radar64 at P=256 keeps 9 rows, 2,313
// floats against 3 x 257^2 = 198,147. stereo128's first task is not
// replicable, so a module ending after it can hold every count and its
// rows grow with P.
func TestTransferTableSize(t *testing.T) {
	rows := map[string][2]int{ // sum of |E_{e+1}| at P = 64 and P = 256
		"radar64":    {9, 9},
		"ffthist256": {12, 12},
		"stereo128":  {192, 768},
		"threestage": {9, 9},
	}
	for name, want := range rows {
		c, pl := loadSpec(t, name)
		for i, P := range []int{64, 256} {
			pl.Procs = P
			sends := 0
			dp.CommGrid(c, pl, dp.Options{}, func(e int, send, recv []int) { sends += len(send) })
			if sends != want[i] {
				t.Errorf("%s P=%d: CommGrid has %d send counts, want %d", name, P, sends, want[i])
			}
			got, err := dp.TransferTableLen(c, pl, dp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i]*(P+1) {
				t.Errorf("%s P=%d: transfer table holds %d floats, want %d x %d", name, P, got, want[i], P+1)
			}
		}
	}
}

// TestCappedSolveMatchesFullOnSpecs checks the capped cold solves against
// the uncapped Solver on the four committed specs at P = 16, 32, 64 and
// 128 (not under -short), under the three option sets: MapChain, and
// AssignClustered on every clustering.
func TestCappedSolveMatchesFullOnSpecs(t *testing.T) {
	for _, name := range specNames {
		c, pl := loadSpec(t, name)
		for _, P := range []int{16, 32, 64, 128} {
			if P == 128 && testing.Short() {
				continue
			}
			pl.Procs = P
			for i, opt := range dp.ReferenceOptions {
				what := fmt.Sprintf("%s P=%d options %d", name, P, i)
				dp.CheckCappedMatchesFull(t, what, c, pl, opt, nil)
				for _, spans := range model.AllClusterings(c.Len()) {
					dp.CheckCappedMatchesFull(t, what, c, pl, opt, spans)
				}
			}
		}
	}
}

// TestCappedSolveSkipsWork checks that the cap saves work, which no
// identity test sees: an incumbent never lowered from +Inf returns the
// same mappings. MapChain's solve counts the source states it expands and
// their transitions, and skips the states above its incumbent before
// counting them. On ffthist256 at P=64 the optimum closes in the first
// pass, so the capped solve makes at most a quarter of the uncapped
// solve's transitions; on radar64 few states lie above it, and the capped
// solve still makes no more.
func TestCappedSolveSkipsWork(t *testing.T) {
	work := func(reg *live.Registry) (states, transitions int64) {
		return reg.Counter("dp.map_chain.states").Total(), reg.Counter("dp.map_chain.transitions").Total()
	}
	for _, tc := range []struct {
		name string
		div  int64 // capped transitions * div <= uncapped transitions
	}{{"ffthist256", 4}, {"radar64", 1}} {
		c, pl := loadSpec(t, tc.name)
		pl.Procs = 64
		capped, full := live.NewRegistry(live.Options{}), live.NewRegistry(live.Options{})
		if _, err := dp.MapChain(c, pl, dp.Options{Metrics: capped}); err != nil {
			t.Fatal(err)
		}
		s, err := dp.NewSolver(c, pl, dp.Options{Metrics: full})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		cs, ct := work(capped)
		fs, ft := work(full)
		t.Logf("%s: capped %d states, %d transitions; uncapped %d states, %d transitions", tc.name, cs, ct, fs, ft)
		if ct == 0 || ct*tc.div > ft {
			t.Errorf("%s: capped solve made %d transitions, want at most 1/%d of the uncapped %d", tc.name, ct, tc.div, ft)
		}
		if cs > fs {
			t.Errorf("%s: capped solve expanded %d states, uncapped %d", tc.name, cs, fs)
		}
	}
}

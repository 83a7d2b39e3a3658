package dp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/model"
)

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
	for _, name := range []string{"radar64", "ffthist256", "stereo128", "threestage"} {
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

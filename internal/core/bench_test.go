package core

import (
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/dp"
	"pipemap/internal/model"
)

// specNames are the committed chain specs under specs/.
var specNames = []string{"radar64", "ffthist256", "stereo128", "threestage"}

// loadSpec parses the committed spec specs/name.json.
func loadSpec(tb testing.TB, name string) (*model.Chain, model.Platform) {
	tb.Helper()
	f, err := os.Open(filepath.Join("..", "..", "specs", name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	c, pl, err := ParseChainSpec(f)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return c, pl
}

// BenchmarkColdSolveSpecs times one cold DP mapping of each committed spec
// through Map: tables and every layer built from scratch, as a planner
// pays on its first solve of a spec.
func BenchmarkColdSolveSpecs(b *testing.B) {
	for _, name := range specNames {
		c, pl := loadSpec(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Map(Request{Chain: c, Platform: pl, Algorithm: DP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRetainedSolveSpecs times the solve a retained solver runs on
// each committed spec: NewSolver and its uncapped Solve, then a Resolve
// after every task's cost moved, which recomputes every layer. A fleet
// admission and a controller's first solve of a spec pay this path.
func BenchmarkRetainedSolveSpecs(b *testing.B) {
	for _, name := range specNames {
		c, pl := loadSpec(b, name)
		tasks := make([]model.Task, c.Len())
		changed := make([]int, c.Len())
		for i, task := range c.Tasks {
			task.Exec = model.ScaleCost{F: task.Exec, K: 1.25}
			tasks[i], changed[i] = task, i
		}
		scaled := &model.Chain{Tasks: tasks, ICom: c.ICom, ECom: c.ECom}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				s, err := dp.NewSolver(c, pl, dp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Resolve(scaled, changed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

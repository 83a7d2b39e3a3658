package fleet

import (
	"testing"

	"pipemap/internal/model"
)

// BenchmarkAdmitCacheHit times the admission of a spec whose cap solve is
// already cached: one CanonicalKeys pass, the rebalance and a frontier
// read. Each admitted pipeline departs again outside the timer.
func BenchmarkAdmitCacheHit(b *testing.B) {
	for _, name := range []string{"radar64", "ffthist256"} {
		b.Run(name, func(b *testing.B) {
			c, pl := loadSpec(b, name)
			f, err := New(Config{Pool: model.Platform{Procs: 64, MemPerProc: pl.MemPerProc}})
			if err != nil {
				b.Fatal(err)
			}
			admit := func() int64 {
				p, err := f.Admit(Spec{Tenant: name, Chain: c, MaxProcs: 64})
				if err != nil {
					b.Fatal(err)
				}
				return p.ID
			}
			if err := f.Depart(admit()); err != nil { // solve once, outside the loop
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			// A plain loop: b.Loop restarts its clock at every StartTimer.
			for i := 0; i < b.N; i++ {
				id := admit()
				b.StopTimer()
				if err := f.Depart(id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

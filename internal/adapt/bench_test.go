package adapt

import (
	"fmt"
	"os"
	"testing"

	"pipemap/internal/core"
)

// BenchmarkCanonicalKeys times one CanonicalKeys pass, the hash behind
// every memo lookup and fleet admission, on three committed specs at P=64
// and P=256.
func BenchmarkCanonicalKeys(b *testing.B) {
	for _, name := range []string{"radar64", "ffthist256", "stereo128"} {
		fh, err := os.Open("../../specs/" + name + ".json")
		if err != nil {
			b.Fatal(err)
		}
		c, pl, err := core.ParseChainSpec(fh)
		fh.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, P := range []int{64, 256} {
			pl.Procs = P
			b.Run(fmt.Sprintf("%s/P=%d", name, P), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					CanonicalKeys(c, pl)
				}
			})
		}
	}
}

package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTracer hammers one tracer from many goroutines — the shape
// of concurrent solves sharing one trace — while a reader snapshots
// concurrently. Run under -race this is the tracer's data-race check.
func TestConcurrentTracer(t *testing.T) {
	const goroutines = 16
	const perG = 200
	tr := NewTracer()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0:
					tr.SpanArgs("stage", "s", g, start, time.Microsecond, map[string]any{"dataset": i})
				case 1:
					tr.Span("cat", "op", g, start, time.Microsecond)
				case 2:
					tr.Instant("fault", "death", g, start)
				default:
					tr.NameThread(g, fmt.Sprintf("w%d", g))
				}
			}
		}(g)
	}
	// Concurrent readers: Events/Len/WriteJSON must be safe mid-write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = tr.Len()
			_ = tr.Events()
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := tr.Len(); got != goroutines*perG {
		t.Errorf("lost events: got %d, want %d", got, goroutines*perG)
	}
}

//go:build !linux

package fxrt

import "time"

// sleep blocks the calling goroutine for at least d. Off Linux it is
// time.Sleep, which cannot time a sub-millisecond stage: a wait under 1 ms
// in an idle process returns after about 1 ms.
func sleep(d time.Duration) { time.Sleep(d) }

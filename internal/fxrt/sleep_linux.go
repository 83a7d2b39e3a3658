//go:build linux

package fxrt

import (
	"container/heap"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sleeper behind every emulated stage sleep. time.Sleep cannot time a
// sub-millisecond stage: when every P is idle the Go runtime waits for its
// next timer in the netpoller, which rounds any wait under 1 ms up to a
// 1 ms epoll_wait, so a 250 µs sleep returns after about 1.09 ms. The
// sleeper is one goroutine locked to its own OS thread, whose timer slack
// is set to 1 ns. It keeps a min-heap of deadlines and waits for the
// earliest in a single ppoll on a pipe; a sleep with an earlier deadline
// writes a byte to the pipe to cut the wait short. When a deadline has
// passed on the monotonic clock it closes that sleeper's channel, never
// before, and yields its P to the released goroutines before it waits
// again. With no deadline pending it stays in the same wait, using no CPU,
// and exits (its thread with it) after sleepIdle.

// sleepIdle is how long the timer goroutine waits with no deadline pending
// before it exits.
const sleepIdle = time.Second

const (
	// prSetTimerSlack is prctl's PR_SET_TIMERSLACK, which package syscall
	// does not define on every architecture.
	prSetTimerSlack = 29
	pollIn          = 0x1
)

// pollFd is struct pollfd.
type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

// wake is one pending sleep: its deadline, and the channel closed once
// the deadline has passed.
type wake struct {
	at   time.Time
	done chan struct{}
}

// wakeHeap orders pending sleeps by deadline.
type wakeHeap []wake

func (h wakeHeap) Len() int           { return len(h) }
func (h wakeHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h wakeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *wakeHeap) Push(x any)        { *h = append(*h, x.(wake)) }
func (h *wakeHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	*h = old[:len(old)-1]
	return w
}

// timer is the sleeper's state, one per process so that every emulated
// pipeline shares the one timer thread. The timer goroutine holds mu
// except while it waits in ppoll or yields.
var timer struct {
	mu      sync.Mutex
	pending wakeHeap
	// running is whether the timer goroutine is alive; it owns pipe.
	running bool
	pipe    [2]int
	// waitUntil is the deadline of the goroutine's wait, or zero when no
	// sleep needs to cut it short: the goroutine will look at the heap
	// before it waits, or a byte is already in the pipe.
	waitUntil time.Time
}

// sleep blocks the calling goroutine for at least d.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := wake{at: time.Now().Add(d), done: make(chan struct{})}
	timer.mu.Lock()
	if !timer.running {
		if err := syscall.Pipe2(timer.pipe[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
			// Out of descriptors: sleep coarsely rather than not at all.
			timer.mu.Unlock()
			time.Sleep(d)
			return
		}
		timer.running = true
		timer.waitUntil = time.Time{}
		go timerLoop()
	}
	heap.Push(&timer.pending, w)
	if w.at.Before(timer.waitUntil) {
		// The pipe holds at most this one byte, so the write cannot fail
		// for want of room.
		_, _ = syscall.Write(timer.pipe[1], []byte{0})
		timer.waitUntil = time.Time{}
	}
	timer.mu.Unlock()
	<-w.done
}

// timerLoop is the timer goroutine. It never unlocks its OS thread, so the
// thread and its timer slack end with it.
func timerLoop() {
	runtime.LockOSThread()
	// Should prctl fail, the thread keeps the default 50 µs slack: later
	// wake-ups, never early ones.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	fd := pollFd{fd: int32(timer.pipe[0]), events: pollIn}
	var buf [1]byte
	// idleUntil ends the current idle spell; zero while sleeps are pending.
	var idleUntil time.Time
	timer.mu.Lock()
	for {
		now := time.Now()
		if len(timer.pending) > 0 && !now.Before(timer.pending[0].at) {
			for len(timer.pending) > 0 && !now.Before(timer.pending[0].at) {
				close(heap.Pop(&timer.pending).(wake).done)
			}
			// The released goroutines are queued on this thread's P, which
			// stays with the thread while it blocks in ppoll; unless an idle
			// P steals them they wait there until sysmon retakes it. Hand
			// the P to them first.
			timer.waitUntil = time.Time{}
			timer.mu.Unlock()
			runtime.Gosched()
			timer.mu.Lock()
			continue
		}
		var until time.Time
		if len(timer.pending) > 0 {
			until, idleUntil = timer.pending[0].at, time.Time{}
		} else {
			if idleUntil.IsZero() {
				idleUntil = now.Add(sleepIdle)
			} else if !now.Before(idleUntil) {
				break
			}
			until = idleUntil
		}
		timer.waitUntil = until
		timer.mu.Unlock()
		// An interrupted or failed wait only ends early; the loop looks at
		// the clock before it releases anyone.
		ts := syscall.NsecToTimespec(int64(until.Sub(now)))
		_, _, _ = syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&fd)), 1,
			uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
		timer.mu.Lock()
		if timer.waitUntil.IsZero() {
			_, _ = syscall.Read(timer.pipe[0], buf[:])
		}
	}
	timer.running = false
	syscall.Close(timer.pipe[0])
	syscall.Close(timer.pipe[1])
	timer.mu.Unlock()
}

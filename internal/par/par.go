// Package par provides the process-wide weighted semaphore that governs
// simulation parallelism. Every layer that fans work out — harness sweep
// jobs, sampled-interval measurement, checkpoint restores — draws worker
// slots from one shared semaphore sized to GOMAXPROCS, so sweep-level ×
// interval-level concurrency composes to ≈NumCPU instead of multiplying.
//
// The composition rule that keeps this deadlock-free: a goroutine may hold
// a blocking Acquire only at the outermost fan-out level (one unit per
// sweep job); every nested level runs on its caller's goroutine and adds
// extra workers only via TryAcquire, so a slot holder always makes
// progress with or without additional grants.
package par

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sem is a weighted counting semaphore with FIFO grant order: a large
// waiter at the head of the queue is not starved by smaller waiters that
// arrive behind it.
type Sem struct {
	size int64

	mu      sync.Mutex
	cur     int64
	waiters list.List // of *waiter
}

type waiter struct {
	n     int64
	ready chan struct{} // closed when the units are granted
}

// NewSem returns a semaphore with n units (at least 1).
func NewSem(n int64) *Sem {
	if n < 1 {
		n = 1
	}
	return &Sem{size: n}
}

// Cap returns the semaphore's total unit count.
func (s *Sem) Cap() int64 { return s.size }

// Held returns the units currently acquired (waiters excluded).
func (s *Sem) Held() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Acquire blocks until n units are available or ctx is done. On a nil
// error the caller owns n units and must Release them. Requests larger
// than Cap fail immediately: they could never be satisfied.
func (s *Sem) Acquire(ctx context.Context, n int64) error {
	if n < 1 || n > s.size {
		return fmt.Errorf("par: acquire %d units of a %d-unit semaphore", n, s.size)
	}
	s.mu.Lock()
	if s.cur+n <= s.size && s.waiters.Len() == 0 {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted while cancellation was landing: cancellation wins,
			// so put the units back (which may unblock the next waiter).
			s.cur -= n
			s.notify()
		default:
			s.waiters.Remove(elem)
			// Removing a large waiter from the head can unblock smaller
			// waiters queued behind it.
			s.notify()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// TryAcquire acquires n units without blocking, reporting whether it
// succeeded. It fails while earlier Acquire calls are queued, preserving
// FIFO order.
func (s *Sem) TryAcquire(n int64) bool {
	s.mu.Lock()
	ok := n >= 1 && s.cur+n <= s.size && s.waiters.Len() == 0
	if ok {
		s.cur += n
	}
	s.mu.Unlock()
	return ok
}

// Release returns n units and grants queued waiters in FIFO order. It
// panics if more units are released than are held.
func (s *Sem) Release(n int64) {
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.mu.Unlock()
		panic("par: released more semaphore units than held")
	}
	s.notify()
	s.mu.Unlock()
}

// notify grants queued waiters, in order, while they fit. Caller holds mu.
func (s *Sem) notify() {
	for {
		front := s.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*waiter)
		if s.cur+w.n > s.size {
			return // FIFO: the head waiter blocks everything behind it
		}
		s.cur += w.n
		s.waiters.Remove(front)
		close(w.ready)
	}
}

var (
	cpuOnce sync.Once
	cpuSem  *Sem
)

// CPU returns the process-wide semaphore, sized to GOMAXPROCS at first
// use. All simulation fan-out shares it; code that needs an isolated pool
// (tests, benchmarks) constructs its own Sem instead.
func CPU() *Sem {
	cpuOnce.Do(func() { cpuSem = NewSem(int64(runtime.GOMAXPROCS(0))) })
	return cpuSem
}

// ForEach runs f(k) for every k in [0, n), on the caller's goroutine plus
// any slots of CPU that are free right now. It never blocks on the
// semaphore: the caller always works and extra workers come only from
// TryAcquire(1), each released when it runs out of indices. That is the
// composition rule's inner half, so ForEach is safe at any nesting level,
// inside a job that holds a blocking Acquire or beside one at the
// outermost level, and progress never depends on a grant.
func ForEach(n int, f func(k int)) {
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			f(k)
		}
	}
	sem := CPU()
	var wg sync.WaitGroup
	for w := 1; w < n && sem.TryAcquire(1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sem.Release(1)
			work()
		}()
	}
	work()
	wg.Wait()
}

// Package sched provides the allocation-free event-scheduling primitive of
// the simulator's cycle loop: a fixed-horizon timing wheel that replaces the
// per-cycle map of completion events. Buckets are reused ring-style, so the
// steady state schedules and drains events without touching the heap; the
// rare event beyond the horizon spills to a small overflow list. One
// occupancy bit per bucket lets NextAt find the next pending cycle with a
// couple of word searches instead of walking the empty buckets of an idle
// span, so idle-cycle elision pays per event, not per skipped cycle.
package sched

import "math/bits"

// Wheel is a timing wheel holding events of type T keyed by absolute cycle.
// The wheel has a power-of-two number of buckets (the horizon); an event at
// most horizon-1 cycles in the future lands in bucket at&mask, which cannot
// collide with a different cycle because the owner drains every bucket it
// passes. Events farther out than the horizon are kept on an overflow list
// and checked only while that list is non-empty.
//
// Correctness requires that Due be called for every cycle in order; the
// pipeline's complete() stage does exactly that.
type Wheel[T any] struct {
	buckets  [][]T
	occupied []uint64 // bit i%64 of word i/64 is set iff buckets[i] is non-empty
	mask     uint64
	overflow []deferred[T]
	scratch  []T // reused Due() result; valid until the next Due call
	count    int
}

type deferred[T any] struct {
	at   uint64
	item T
}

// NewWheel returns a wheel whose horizon is at least the given number of
// cycles (rounded up to a power of two, minimum 8).
func NewWheel[T any](horizon int) *Wheel[T] {
	n := 8
	for n < horizon {
		n <<= 1
	}
	return &Wheel[T]{
		buckets:  make([][]T, n),
		occupied: make([]uint64, (n+63)/64),
		mask:     uint64(n - 1),
	}
}

// Horizon returns the number of buckets.
func (w *Wheel[T]) Horizon() int { return len(w.buckets) }

// Len returns the number of pending events.
func (w *Wheel[T]) Len() int { return w.count }

// Schedule enqueues item to be returned by Due(at). now is the current
// cycle; at must satisfy at > now (the caller clamps latencies to >= 1).
func (w *Wheel[T]) Schedule(now, at uint64, item T) {
	w.count++
	if at-now >= uint64(len(w.buckets)) {
		w.overflow = append(w.overflow, deferred[T]{at: at, item: item})
		return
	}
	i := at & w.mask
	w.buckets[i] = append(w.buckets[i], item)
	w.occupied[i/64] |= 1 << (i % 64)
}

// Due drains and returns every event scheduled for cycle now. The returned
// slice aliases an internal scratch buffer that is overwritten by the next
// Due call; callers must consume it immediately. Scheduling new events while
// iterating the returned slice is safe.
func (w *Wheel[T]) Due(now uint64) []T {
	w.scratch = w.scratch[:0]
	i := now & w.mask
	if b := w.buckets[i]; len(b) > 0 {
		w.scratch = append(w.scratch, b...)
		var zero T
		for j := range b {
			b[j] = zero // release references held by pointer-typed T
		}
		w.buckets[i] = b[:0]
		w.occupied[i/64] &^= 1 << (i % 64)
	}
	if len(w.overflow) > 0 {
		kept := w.overflow[:0]
		for _, d := range w.overflow {
			if d.at == now {
				w.scratch = append(w.scratch, d.item)
			} else {
				kept = append(kept, d)
			}
		}
		for j := len(kept); j < len(w.overflow); j++ {
			w.overflow[j] = deferred[T]{}
		}
		w.overflow = kept
	}
	w.count -= len(w.scratch)
	return w.scratch
}

// NextAt returns the cycle of the earliest pending event at or after from,
// assuming Due has been called for every cycle before from. Under that
// invariant each non-empty bucket holds events for exactly one cycle in
// [from, from+horizon), namely the unique cycle mapping to its index, so the
// first occupied bucket at or after from's, wrapping once, holds the
// earliest in-horizon event; overflow entries (scheduled beyond the
// horizon, drained lazily by Due) are compared by their recorded absolute
// cycle. The second result is false when the wheel is empty. Idle-cycle
// elision uses this to bound a multi-cycle skip: every cycle before the
// returned one is provably event-free, so Due's called-for-every-cycle
// contract is preserved when those calls are elided.
func (w *Wheel[T]) NextAt(from uint64) (uint64, bool) {
	if w.count == 0 {
		return 0, false
	}
	best, found := uint64(0), false
	for _, d := range w.overflow {
		if !found || d.at < best {
			best, found = d.at, true
		}
	}
	if i, ok := w.nextOccupied(from & w.mask); ok {
		// i is at most horizon-1 buckets past from's (ring order), and
		// so is its cycle past from.
		if at := from + (i-from)&w.mask; !found || at < best {
			return at, true
		}
	}
	return best, found
}

// nextOccupied returns the first occupied bucket at or after start in ring
// order: the rest of start's word, then the other words, then start's word
// again for its bits below start. Bits at and above the bucket count are
// never set, so a wheel of fewer than 64 buckets needs no extra mask.
func (w *Wheel[T]) nextOccupied(start uint64) (uint64, bool) {
	s := int(start / 64)
	if word := w.occupied[s] >> (start % 64); word != 0 {
		return start + uint64(bits.TrailingZeros64(word)), true
	}
	for j, left := s, len(w.occupied); left > 0; left-- {
		if j++; j == len(w.occupied) {
			j = 0
		}
		if word := w.occupied[j]; word != 0 {
			return uint64(j)*64 + uint64(bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// Reset discards every pending event, invoking visit (if non-nil) on each so
// the caller can recycle them (the pipeline returns entries to its pool).
// The wheel's allocations are retained for reuse.
func (w *Wheel[T]) Reset(visit func(T)) {
	var zero T
	for i := range w.buckets {
		b := w.buckets[i]
		for j := range b {
			if visit != nil {
				visit(b[j])
			}
			b[j] = zero
		}
		w.buckets[i] = b[:0]
	}
	for j := range w.overflow {
		if visit != nil {
			visit(w.overflow[j].item)
		}
		w.overflow[j] = deferred[T]{}
	}
	w.overflow = w.overflow[:0]
	clear(w.occupied)
	w.count = 0
}

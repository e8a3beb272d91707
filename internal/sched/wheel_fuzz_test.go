package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fuzzHorizons are the wheel sizes FuzzWheelVsReference runs: one- and
// multi-word occupancy bitmaps, the smaller ones partly filled, and the
// pipeline's 128.
var fuzzHorizons = []int{8, 16, 64, 128, 256}

// refEvent is one pending event of the reference: its cycle and the id the
// wheel carries as its item.
type refEvent struct {
	at uint64
	id int
}

// FuzzWheelVsReference drives a Wheel and a sorted multiset of pending
// cycles through the same random sequence of Schedule, Due, NextAt and
// Reset calls and checks NextAt, Len and the set Due returns after every
// step. Each op takes two bytes. The first byte's low nibble picks the call:
// below 8 a Schedule, whose distance from the clock (1 up to twice the
// horizon, so some events overflow) is taken from its high nibble and the
// second byte; below 15 a clock advance of 1 to 64 cycles, with NextAt and
// Due on every cycle; 15 a Reset. `make fuzz-smoke` runs it in CI with a
// short time budget; the seeded sequences run every time.
func FuzzWheelVsReference(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for h := range fuzzHorizons {
		ops := make([]byte, 64)
		r.Read(ops)
		f.Add(uint8(h), ops)
	}
	// TestWheelNextAt's scenario on its 16-bucket wheel: events at 5 and 12,
	// one at 40 on the overflow list (scheduled at cycle 8, the earliest
	// that reaches 40 within twice the horizon), then one at 31 beyond the
	// horizon and one at 20 whose bucket lies behind 13's in the ring.
	// NextAt(13) must find 20.
	f.Add(uint8(1), []byte{
		0x00, 4, 0x00, 11, // Schedule 5 and 12 at cycle 0
		0x08, 7, // advance to 8
		0x00, 31, // Schedule 40
		0x08, 3, // advance to 12
		0x00, 18, 0x00, 7, // Schedule 31 and 20
		0x08, 28, // advance to 41
	})
	f.Fuzz(func(t *testing.T, horizon uint8, ops []byte) {
		h := fuzzHorizons[int(horizon)%len(fuzzHorizons)]
		// The fuzzer minimizes every new input in time quadratic in its
		// length; at 256 bytes that left a 10 s run at 0 execs/s.
		if len(ops) > 64 {
			ops = ops[:64]
		}
		w := NewWheel[int](h)
		var pending []refEvent // sorted by cycle
		var now uint64         // Due has been called for every cycle up to now
		nextID := 0
		check := func(op int, from uint64) {
			t.Helper()
			got, ok := w.NextAt(from)
			if len(pending) == 0 {
				if ok {
					t.Fatalf("horizon %d op %d: NextAt(%d) = %d on an empty wheel", h, op, from, got)
				}
			} else if !ok || got != pending[0].at {
				t.Fatalf("horizon %d op %d: NextAt(%d) = %d,%v, want %d", h, op, from, got, ok, pending[0].at)
			}
			if w.Len() != len(pending) {
				t.Fatalf("horizon %d op %d: Len = %d, want %d", h, op, w.Len(), len(pending))
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op := i / 2
			switch k := ops[i] & 15; {
			case k < 8:
				dist := 1 + (uint64(ops[i]>>4)<<8|uint64(ops[i+1]))%uint64(2*h)
				ev := refEvent{at: now + dist, id: nextID}
				nextID++
				w.Schedule(now, ev.at, ev.id)
				j := sort.Search(len(pending), func(j int) bool { return pending[j].at > ev.at })
				pending = slices.Insert(pending, j, ev)
			case k < 15:
				for n := 1 + int(ops[i+1])%64; n > 0; n-- {
					now++
					check(op, now)
					var want []int
					for len(pending) > 0 && pending[0].at == now {
						want = append(want, pending[0].id)
						pending = pending[1:]
					}
					got := slices.Clone(w.Due(now))
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("horizon %d op %d: Due(%d) = %v, want %v", h, op, now, got, want)
					}
				}
			default:
				var visited, want []int
				w.Reset(func(id int) { visited = append(visited, id) })
				for _, ev := range pending {
					want = append(want, ev.id)
				}
				slices.Sort(visited)
				slices.Sort(want)
				if !slices.Equal(visited, want) {
					t.Fatalf("horizon %d op %d: Reset visited %v, want %v", h, op, visited, want)
				}
				pending = pending[:0]
			}
			check(op, now+1)
		}
	})
}

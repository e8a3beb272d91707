package pipeline

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRenameInvariants pins the rename and stall bookkeeping cycle by cycle
// over the random-program corpus TestSchedulerEquivalence uses and every
// scheduler-equivalence configuration. After every Step:
//
//   - each physical register is accounted for exactly once: free, mapped by
//     the RAT, or held as the previous mapping of an in-flight ROB entry with
//     a destination (returned to the free list when that entry retires, and
//     to the RAT when it is squashed);
//   - the stalled count equals the number of ROB entries whose replay stall
//     bit is set, so clearStallBits may skip its walk when it is zero.
func TestRenameInvariants(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*65537 + 1))
			img := randomProgram(r, fmt.Sprintf("ren%d", seed))
			for _, cfg := range schedEquivConfigs() {
				p, err := New(cfg, img)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				seen := make([]int, len(p.physVal))
				for more := true; more; {
					more = p.Step()
					if err := checkBookkeeping(p, seen); err != nil {
						t.Fatalf("%s: cycle %d: %v", cfg.Name, p.cycle, err)
					}
				}
				if err := p.Err(); err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
			}
		})
	}
}

// checkBookkeeping counts every physical register's appearances across the
// free list, the RAT and the old mappings held by ROB entries, and the ROB
// entries with their stall bit set; seen is scratch space with one slot per
// physical register.
func checkBookkeeping(p *Pipeline, seen []int) error {
	clear(seen)
	for _, r := range p.freePhys {
		seen[r]++
	}
	for _, r := range p.rat {
		seen[r]++
	}
	stalled := 0
	for i := 0; i < p.rob.len(); i++ {
		e := p.rob.at(i)
		if e.hasDest {
			seen[e.oldPhys]++
		}
		if e.stall {
			stalled++
		}
	}
	for r, n := range seen {
		if n != 1 {
			return fmt.Errorf("physical register %d accounted for %d times", r, n)
		}
	}
	if stalled != p.stalled {
		return fmt.Errorf("stalled count %d, ROB holds %d stalled entries", p.stalled, stalled)
	}
	return nil
}

package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/replay"
)

// TestReplayEquivalence pins the replay stream to the golden model over the
// random-program corpus on which TestSchedulerEquivalence runs view-bound
// pipelines under every scheduler-equivalence configuration: at each of
// those configurations' budgets, the stream replay.Materialize builds
// answers every fetch question (PCAt, TakenAt, NextPCAt) and every
// retirement record (RecordAt) exactly as arch.Machine.Step's record at the
// same index, with Step's length and halt flag. Any divergence means the
// stream reconstructs a branch outcome, an indirect target, a next PC or a
// record differently from the functional model.
func TestReplayEquivalence(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	budgets := map[uint64]bool{}
	for _, cfg := range schedEquivConfigs() {
		budgets[cfg.MaxInsts] = true
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*65537 + 1))
			img := randomProgram(r, fmt.Sprintf("req%d", seed))
			for budget := range budgets {
				s, err := replay.Materialize(img, budget)
				if err != nil {
					t.Fatalf("budget %d: stream: %v", budget, err)
				}
				m := arch.New(img)
				for i := 0; m.Count < budget && !m.Halted; i++ {
					want, err := m.Step()
					if err != nil {
						t.Fatalf("budget %d: Step %d: %v", budget, i, err)
					}
					if i >= s.Len() {
						t.Fatalf("budget %d: stream ends after %d records, Step runs on", budget, s.Len())
					}
					if got := s.RecordAt(i); got != want {
						t.Fatalf("budget %d: record %d:\n stream: %+v\n Step:   %+v", budget, i, got, want)
					}
					if s.PCAt(i) != want.PC || s.TakenAt(i) != want.Taken || s.NextPCAt(i) != want.NextPC {
						t.Fatalf("budget %d: record %d: PCAt %#x TakenAt %v NextPCAt %#x, Step has %#x %v %#x",
							budget, i, s.PCAt(i), s.TakenAt(i), s.NextPCAt(i), want.PC, want.Taken, want.NextPC)
					}
				}
				if uint64(s.Len()) != m.Count || s.Halted != m.Halted {
					t.Fatalf("budget %d: stream len=%d halted=%v, Step ran %d halted=%v",
						budget, s.Len(), s.Halted, m.Count, m.Halted)
				}
			}
		})
	}
}

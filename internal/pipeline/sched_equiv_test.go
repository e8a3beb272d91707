package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"sfcmdt/internal/bpred"
	"sfcmdt/internal/core"
	"sfcmdt/internal/prefetch"
)

// schedEquivConfigs are the configurations the wakeup scheduler must match
// the linear-scan oracle on, bit for bit: the paper's MDT/SFC subsystem in
// pairwise and total-order enforcement (the tag-waiter and replay paths),
// the LSQ baseline, retirement-time value replay, the frontend stack, the
// multi-version SFC, and the MDT/SFC with the search filter and flush
// endpoints. Rows are only ever appended: tests pick [0] and [1]. The ROB
// sizes are chosen to exercise the bitset's word boundaries and ring wrap
// (64 = one exact word, 96 = a partial second word, 128 = two words under an
// 8-wide front end), and one configuration limits memory ports so the
// port-limited skip path is covered.
func schedEquivConfigs() []Config {
	return []Config{
		{
			Name: "equiv-mdtsfc", Width: 4, ROBSize: 96, MemSys: MemMDTSFC,
			MDT:  core.MDTConfig{Sets: 64, Ways: 2, GranBytes: 8, Tagged: true},
			SFC:  core.SFCConfig{Sets: 16, Ways: 2},
			Pred: core.PredictorConfig{Mode: core.PredPairwise}, MaxInsts: 4000,
		},
		{
			Name: "equiv-mdtsfc-total", Width: 8, ROBSize: 128, MemSys: MemMDTSFC,
			MDT:      core.MDTConfig{Sets: 2, Ways: 1, GranBytes: 8, Tagged: true},
			SFC:      core.SFCConfig{Sets: 2, Ways: 1},
			Pred:     core.PredictorConfig{Mode: core.PredTotalOrder},
			MemPorts: 2, MaxInsts: 4000,
		},
		{
			Name: "equiv-lsq", Width: 4, ROBSize: 64, MemSys: MemLSQ,
			LSQ:  core.LSQConfig{LoadEntries: 16, StoreEntries: 12},
			Pred: core.PredictorConfig{Mode: core.PredTrueOnly}, MaxInsts: 4000,
		},
		{
			Name: "equiv-value-replay", Width: 4, ROBSize: 64, MemSys: MemValueReplay,
			LSQ:  core.LSQConfig{LoadEntries: 16, StoreEntries: 12},
			Pred: core.PredictorConfig{Mode: core.PredOff}, MaxInsts: 4000,
		},
		{
			// The full frontend stack (DESIGN.md §14): TAGE direction
			// prediction, stride prefetching into the L1D, and the PCAX
			// pre-probe — all three must stay bit-identical across
			// scheduler choice and idle-cycle elision.
			Name: "equiv-frontend", Width: 4, ROBSize: 96, MemSys: MemMDTSFC,
			MDT:      core.MDTConfig{Sets: 64, Ways: 2, GranBytes: 8, Tagged: true},
			SFC:      core.SFCConfig{Sets: 16, Ways: 2},
			Pred:     core.PredictorConfig{Mode: core.PredPairwise},
			BPred:    bpred.TageConfig(),
			Prefetch: prefetch.StrideConfig(),
			Preprobe: core.AddrPredDefaults(),
			MaxInsts: 4000,
		},
		{
			// The §4 multiversion alternative (E16): a renaming SFC small
			// enough for set and version-capacity conflicts, over a
			// true-only MDT.
			Name: "equiv-mvsfc", Width: 4, ROBSize: 96, MemSys: MemMVSFC,
			MDT:   core.MDTConfig{Sets: 64, Ways: 2, GranBytes: 8, Tagged: true},
			MVSFC: core.MVSFCConfig{Sets: 16, Ways: 2, Versions: 2},
			Pred:  core.PredictorConfig{Mode: core.PredTrueOnly}, MaxInsts: 4000,
		},
		{
			// The §4 search filter (E18) and the §3.2 flush endpoints (E12)
			// on the paper's design, with an MDT small enough that the
			// filter's exemptions matter.
			Name: "equiv-mdtsfc-svw-endpoints", Width: 4, ROBSize: 64, MemSys: MemMDTSFC,
			MDT:       core.MDTConfig{Sets: 4, Ways: 2, GranBytes: 8, Tagged: true},
			SFC:       core.SFCConfig{Sets: 16, Ways: 2, FlushEndpoints: 2},
			Pred:      core.PredictorConfig{Mode: core.PredPairwise},
			SVWFilter: true, MaxInsts: 4000,
		},
	}
}

// TestSchedulerEquivalence pins the wakeup-driven scheduler to the retained
// linear-scan oracle: across ~200 random programs and every configuration
// above, the two schedulers must produce identical statistics — cycle
// counts, issue/retire counts, violation and replay tallies, everything in
// metrics.Stats. Any divergence means the ready bitset visited a different
// candidate set, or visited it in a different order, than the age-ordered
// scan.
func TestSchedulerEquivalence(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*65537 + 1))
			img := randomProgram(r, fmt.Sprintf("eq%d", seed))
			for _, cfg := range schedEquivConfigs() {
				scanCfg := cfg
				scanCfg.linearScan = true
				oracle, err := New(scanCfg, img)
				if err != nil {
					t.Fatalf("%s scan: %v", cfg.Name, err)
				}
				want, err := oracle.Run()
				if err != nil {
					t.Fatalf("%s scan: %v", cfg.Name, err)
				}
				wakeup, err := New(cfg, img)
				if err != nil {
					t.Fatalf("%s wakeup: %v", cfg.Name, err)
				}
				got, err := wakeup.Run()
				if err != nil {
					t.Fatalf("%s wakeup: %v", cfg.Name, err)
				}
				// CyclesElided is a property of the run loop, not the
				// simulated machine: the scan oracle pins the stepped loop
				// while the wakeup path elides. Every machine counter must
				// still match exactly (TestElideEquivalence pins the elided
				// and stepped loops against each other).
				got.CyclesElided, want.CyclesElided = 0, 0
				if *got != *want {
					t.Errorf("%s: wakeup scheduler diverged from linear-scan oracle\nscan:   %+v\nwakeup: %+v", cfg.Name, *want, *got)
				}
			}
		})
	}
}

// TestSchedulerEquivalenceResetReuse runs scan and wakeup alternately on one
// recycled pipeline, the way the harness's pipeline pool does, so scheduler
// state left by one mode can never leak into the other.
func TestSchedulerEquivalenceResetReuse(t *testing.T) {
	r := rand.New(rand.NewSource(99991))
	img := randomProgram(r, "eqreuse")
	cfg := schedEquivConfigs()[0]
	scanCfg := cfg
	scanCfg.linearScan = true

	p, err := New(scanCfg, img)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := *want
	for i := 0; i < 3; i++ {
		for _, c := range []Config{cfg, scanCfg} {
			fresh, err := New(c, img)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Reset(c, fresh.img, fresh.src); err != nil {
				t.Fatal(err)
			}
			got, err := p.Run()
			if err != nil {
				t.Fatalf("round %d %s: %v", i, c.Name, err)
			}
			got.CyclesElided = 0 // run-loop property; scan never elides
			if *got != ref {
				t.Fatalf("round %d %s: stats diverged after reset reuse\nwant: %+v\ngot:  %+v", i, c.Name, ref, *got)
			}
		}
	}
}

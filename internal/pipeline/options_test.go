package pipeline

import (
	"testing"

	"sfcmdt/internal/core"
	"sfcmdt/internal/prog"
)

// branchyStoreProgram produces unpredictable branches straddling store/load
// pairs — the corruption-heavy pattern — for option testing.
func branchyStoreProgram(t *testing.T) *prog.Image {
	t.Helper()
	b := prog.NewBuilder("opts")
	buf := b.Alloc(512, 8)
	b.La(1, buf)
	b.Li(2, 2000)
	b.Li(4, 999)
	b.Li(5, 6364136223846793005)
	b.Li(6, 1442695040888963407)
	b.Label("loop")
	b.Mul(4, 4, 5)
	b.Add(4, 4, 6)
	b.Srli(7, 4, 40)
	b.Andi(7, 7, 1)
	b.Andi(8, 4, 63<<3&0x1f8)
	b.Add(9, 1, 8)
	b.Beq(7, 0, "alt")
	b.Sd(4, 0, 9)
	b.Ld(10, 0, 9)
	b.J("next")
	b.Label("alt")
	b.Sd(7, 0, 9)
	b.Ld(10, 0, 9)
	b.Label("next")
	b.Add(11, 11, 10)
	b.Addi(2, 2, -1)
	b.Bne(2, 0, "loop")
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func mdtsfcConfig(maxInsts uint64) Config {
	return Config{
		Name:     "opt-test",
		Width:    8,
		ROBSize:  256,
		MemSys:   MemMDTSFC,
		MDT:      core.MDTConfig{Sets: 512, Ways: 2, GranBytes: 8, Tagged: true},
		SFC:      core.SFCConfig{Sets: 64, Ways: 2},
		Pred:     core.PredictorConfig{Mode: core.PredTotalOrder},
		MaxInsts: maxInsts,
	}
}

func runOpt(t *testing.T, cfg Config, img *prog.Image) *Pipeline {
	t.Helper()
	p, err := New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return p
}

// Every §2.4 recovery option and SFC policy must preserve correctness
// (retirement validation is the oracle).
func TestRecoveryOptionMatrix(t *testing.T) {
	img := branchyStoreProgram(t)
	variants := []RecoveryOptions{
		{},
		{SingleLoadOpt: true},
		{CorruptOnOutput: true},
		{SingleLoadOpt: true, CorruptOnOutput: true},
	}
	for i, v := range variants {
		cfg := mdtsfcConfig(25_000)
		cfg.Recovery = v
		p := runOpt(t, cfg, img)
		if p.Stats().Retired == 0 {
			t.Errorf("variant %d retired nothing", i)
		}
	}
}

func TestReplayOnPartialPolicy(t *testing.T) {
	// Subword stores followed by wider loads force partial matches.
	b := prog.NewBuilder("partial")
	buf := b.Alloc(64, 8)
	b.La(1, buf)
	b.Li(2, 1000)
	b.Label("loop")
	b.Sb(2, 0, 1)
	b.Ld(3, 0, 1) // wider than the store: partial SFC match
	b.Add(4, 4, 3)
	b.Addi(2, 2, -1)
	b.Bne(2, 0, "loop")
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	merge := mdtsfcConfig(20_000)
	p1 := runOpt(t, merge, img)
	if p1.Stats().SFCPartialMerges == 0 {
		t.Error("merge policy recorded no partial merges")
	}
	if p1.Stats().ReplayPartial != 0 {
		t.Error("merge policy should not replay on partials")
	}

	replay := mdtsfcConfig(20_000)
	replay.ReplayOnPartial = true
	p2 := runOpt(t, replay, img)
	if p2.Stats().ReplayPartial == 0 {
		t.Error("replay policy recorded no partial replays")
	}
}

func TestUntaggedMDTRuns(t *testing.T) {
	img := branchyStoreProgram(t)
	cfg := mdtsfcConfig(20_000)
	cfg.MDT = core.MDTConfig{Sets: 64, Ways: 1, GranBytes: 8, Tagged: false}
	p := runOpt(t, cfg, img)
	// An untagged MDT aliases, so it must never report conflicts.
	if p.Stats().ReplayMDTConflict != 0 {
		t.Error("untagged MDT reported set conflicts")
	}
}

func TestGranularitySweepCorrect(t *testing.T) {
	img := branchyStoreProgram(t)
	for _, g := range []int{1, 2, 4, 8, 16, 64} {
		cfg := mdtsfcConfig(15_000)
		cfg.MDT.GranBytes = g
		runOpt(t, cfg, img) // validation inside Run is the assertion
	}
}

// Determinism: identical configurations produce identical cycle counts and
// statistics.
func TestDeterminism(t *testing.T) {
	img := branchyStoreProgram(t)
	cfg := mdtsfcConfig(20_000)
	p1 := runOpt(t, cfg, img)
	p2 := runOpt(t, cfg, img)
	if *p1.Stats() != *p2.Stats() {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", p1.Stats(), p2.Stats())
	}
}

// The pipeline must also drain cleanly when the trace ends without a HALT
// (instruction-budget cap).
func TestBudgetCapDrain(t *testing.T) {
	img := branchyStoreProgram(t)
	cfg := mdtsfcConfig(5_000) // well below the program's full length
	p := runOpt(t, cfg, img)
	if p.Stats().Retired != 5_000 {
		t.Fatalf("retired %d, want exactly the budget", p.Stats().Retired)
	}
}

// A 1-wide, 2-entry-window machine is a degenerate but legal configuration.
func TestTinyMachine(t *testing.T) {
	img := branchyStoreProgram(t)
	cfg := mdtsfcConfig(3_000)
	cfg.Width = 1
	cfg.ROBSize = 2
	runOpt(t, cfg, img)
}

// The LSQ subsystem with a 1-entry load and store queue still validates.
func TestTinyLSQ(t *testing.T) {
	img := branchyStoreProgram(t)
	cfg := Config{
		Name:     "tiny-lsq",
		Width:    4,
		ROBSize:  64,
		MemSys:   MemLSQ,
		LSQ:      core.LSQConfig{LoadEntries: 1, StoreEntries: 1},
		Pred:     core.PredictorConfig{Mode: core.PredTrueOnly},
		MaxInsts: 5_000,
	}
	p := runOpt(t, cfg, img)
	if p.Stats().StallLSQFull == 0 {
		t.Error("1-entry queues should stall dispatch")
	}
}

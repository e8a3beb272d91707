package pipeline

import (
	"testing"

	"sfcmdt/internal/core"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
)

// testConfigs returns a small MDT/SFC config and a small LSQ config suitable
// for unit-scale programs.
func testConfigs(maxInsts uint64) []Config {
	return []Config{
		{
			Name:     "mdtsfc",
			Width:    4,
			ROBSize:  64,
			MemSys:   MemMDTSFC,
			MDT:      core.MDTConfig{Sets: 256, Ways: 2, GranBytes: 8, Tagged: true},
			SFC:      core.SFCConfig{Sets: 64, Ways: 2},
			Pred:     core.PredictorConfig{Mode: core.PredPairwise},
			MaxInsts: maxInsts,
		},
		{
			Name:     "lsq",
			Width:    4,
			ROBSize:  64,
			MemSys:   MemLSQ,
			LSQ:      core.LSQConfig{LoadEntries: 24, StoreEntries: 16},
			Pred:     core.PredictorConfig{Mode: core.PredTrueOnly},
			MaxInsts: maxInsts,
		},
	}
}

// runBoth runs the image under both memory subsystems and fails the test on
// any validation error.
func runBoth(t *testing.T, img *prog.Image, maxInsts uint64) {
	t.Helper()
	for _, cfg := range testConfigs(maxInsts) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			p, err := New(cfg, img)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			st, err := p.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Retired == 0 {
				t.Fatal("retired nothing")
			}
			if st.IPC() <= 0 {
				t.Fatalf("nonpositive IPC: %v", st)
			}
			t.Logf("%s: %v", cfg.Name, st)
		})
	}
}

// sumProgram sums n array elements and verifies via a store+load round trip.
func sumProgram(t *testing.T, n int) *prog.Image {
	t.Helper()
	b := prog.NewBuilder("sum")
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i*i + 3)
	}
	arr := b.Word64(vals...)
	out := b.Word64(0)

	b.La(1, arr)
	b.Li(2, uint64(n))
	b.Li(3, 0) // sum
	b.Li(4, 0) // idx
	b.Label("loop")
	b.Ld(5, 0, 1)
	b.Add(3, 3, 5)
	b.Addi(1, 1, 8)
	b.Addi(4, 4, 1)
	b.Blt(4, 2, "loop")
	b.La(6, out)
	b.Sd(3, 0, 6)
	b.Ld(7, 0, 6) // forwarding round trip
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return img
}

func TestSumProgram(t *testing.T) {
	runBoth(t, sumProgram(t, 100), 10_000)
}

// TestForwardingStress hammers a few addresses with stores and loads of
// mixed widths, exercising full, partial, and subword forwarding.
func TestForwardingStress(t *testing.T) {
	b := prog.NewBuilder("fwd")
	buf := b.Alloc(64, 8)
	b.La(1, buf)
	b.Li(2, 300) // iterations
	b.Li(3, 0)
	b.Li(10, 0x0123456789abcdef)
	b.Label("loop")
	// Store wide, load narrow, store narrow, load wide.
	b.Sd(10, 0, 1)
	b.Lw(4, 0, 1)
	b.Lhu(5, 4, 1)
	b.Sb(4, 3, 1)
	b.Ld(6, 0, 1)
	b.Sw(5, 8, 1)
	b.Lbu(7, 9, 1)
	b.Add(10, 10, 6)
	b.Addi(3, 3, 1)
	b.Blt(3, 2, "loop")
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	runBoth(t, img, 10_000)
}

// TestUnpredictableBranches mixes data-dependent branches with stores on
// both arms, provoking wrong-path stores, partial flushes, and SFC
// corruption handling.
func TestUnpredictableBranches(t *testing.T) {
	b := prog.NewBuilder("branchy")
	buf := b.Alloc(256, 8)
	b.La(1, buf)
	b.Li(2, 500)
	b.Li(3, 0)
	b.Li(4, 12345) // LCG state
	b.Li(5, 6364136223846793005)
	b.Li(6, 1442695040888963407)
	b.Label("loop")
	b.Mul(4, 4, 5)
	b.Add(4, 4, 6)
	b.Srli(7, 4, 33)
	b.Andi(7, 7, 1)
	b.Beq(7, 0, "else")
	b.Sd(4, 0, 1)
	b.Ld(8, 0, 1)
	b.J("join")
	b.Label("else")
	b.Sd(4, 8, 1)
	b.Ld(8, 8, 1)
	b.Label("join")
	b.Add(3, 3, 8)
	b.Addi(2, 2, -1)
	b.Bne(2, 0, "loop")
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	runBoth(t, img, 20_000)
}

// antiOutputProgram issues repeated stores to the same address from
// multiple PCs plus delayed loads, provoking anti and output dependence
// violations under the MDT (which lacks renaming).
func antiOutputProgram(t *testing.T) *prog.Image {
	t.Helper()
	b := prog.NewBuilder("antioutput")
	buf := b.Alloc(64, 8)
	b.La(1, buf)
	b.Li(2, 400)
	b.Li(3, 1)
	b.Label("loop")
	// Two stores to the same address; the second should rename in an LSQ
	// but shares an SFC entry here.
	b.Sd(2, 0, 1)
	b.Add(3, 3, 2) // filler dependence chain
	b.Sd(3, 0, 1)
	b.Ld(4, 0, 1)
	// A load then store to the same address (anti pressure). The DIV
	// delays the store's address computation... value computation.
	b.Ld(5, 8, 1)
	b.Div(6, 3, 2)
	b.Sd(6, 8, 1)
	b.Add(3, 3, 4)
	b.Addi(2, 2, -1)
	b.Bne(2, 0, "loop")
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return img
}

func TestAntiOutputPressure(t *testing.T) {
	runBoth(t, antiOutputProgram(t), 20_000)
}

// TestJalrReturn exercises call/return through JALR.
func TestJalrReturn(t *testing.T) {
	runBoth(t, callReturnProgram(t), 5_000)
}

// callReturnProgram is a small call/return loop: JAL with a link
// destination, JALR through it, a conditional loop branch, a store and HALT.
func callReturnProgram(t *testing.T) *prog.Image {
	t.Helper()
	b := prog.NewBuilder("jalr")
	out := b.Word64(0)
	b.Li(2, 50)
	b.Li(3, 0)
	b.Label("loop")
	b.Call("double")
	b.Addi(2, 2, -1)
	b.Bne(2, 0, "loop")
	b.La(6, out)
	b.Sd(3, 0, 6)
	b.Halt()
	b.Label("double")
	b.Addi(3, 3, 2)
	b.Ret()
	img, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return img
}

// TestTinyStructures runs the forwarding stress with a minimal SFC and MDT
// so set conflicts, replays, and head bypasses fire constantly.
func TestTinyStructures(t *testing.T) {
	b := prog.NewBuilder("tiny")
	buf := b.Alloc(1024, 8)
	b.La(1, buf)
	b.Li(2, 300)
	b.Li(3, 0)
	b.Label("loop")
	// Stores to 8 different sets with a 1-set SFC: constant conflicts.
	for i := int64(0); i < 8; i++ {
		b.Sd(2, i*8, 1)
	}
	for i := int64(0); i < 8; i++ {
		b.Ld(4, i*8, 1)
		b.Add(3, 3, 4)
	}
	b.Addi(2, 2, -1)
	b.Bne(2, 0, "loop")
	b.Halt()
	img, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := Config{
		Name:     "tiny-mdtsfc",
		Width:    4,
		ROBSize:  32,
		MemSys:   MemMDTSFC,
		MDT:      core.MDTConfig{Sets: 2, Ways: 1, GranBytes: 8, Tagged: true},
		SFC:      core.SFCConfig{Sets: 1, Ways: 2},
		Pred:     core.PredictorConfig{Mode: core.PredPairwise},
		MaxInsts: 20_000,
	}
	p, err := New(cfg, img)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.ReplaySFCConflict == 0 && st.ReplayMDTConflict == 0 {
		t.Errorf("expected structural-conflict replays with tiny structures: %v", st)
	}
	t.Logf("tiny: %v headBypass=%d/%d", st, st.HeadBypassLoads, st.HeadBypassStores)
}

var _ = isa.OpNop // keep isa imported for future cases

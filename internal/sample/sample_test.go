package sample_test

import (
	"context"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/harness"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

func image(t testing.TB, name string) *arch.Machine {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return arch.New(w.Build())
}

func fullRun(t *testing.T, name string, insts uint64) *pipeline.Pipeline {
	t.Helper()
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, insts)
	p, err := pipeline.New(cfg, image(t, name).Img)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFastForward(t *testing.T) {
	m := image(t, "gzip")
	if err := sample.FastForward(m, 12345); err != nil {
		t.Fatal(err)
	}
	if m.Count != 12345 {
		t.Fatalf("fast-forwarded %d insts, want 12345", m.Count)
	}
	// Fast-forward is the functional model: the machine's state matches a
	// machine stepped the same distance one instruction at a time.
	ref := image(t, "gzip")
	for ref.Count < 12345 {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Regs != ref.Regs || m.PC != ref.PC {
		t.Fatal("fast-forwarded state diverged from stepped state")
	}
}

// TestFastForwardZeroAllocs pins fast-forward, the functional model's
// per-instruction loop, as allocation-free once the pages the program
// touches are mapped.
func TestFastForwardZeroAllocs(t *testing.T) {
	m := image(t, "mcf")
	if err := sample.FastForward(m, 200_000); err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	avg := testing.AllocsPerRun(20, func() {
		if err := sample.FastForward(m, n); err != nil {
			t.Fatal(err)
		}
	})
	if m.Halted || m.Count != 200_000+21*n {
		t.Fatalf("fast-forwarded to %d insts (halted %v), want %d", m.Count, m.Halted, 200_000+21*n)
	}
	if avg != 0 {
		t.Errorf("warm fast-forward: %v allocs per %d insts, want 0", avg, n)
	}
}

// TestFullMeasureBitIdentical is the sampled-vs-full equivalence anchor: a
// plan that measures 100% of the budget in one interval must reproduce the
// full detailed run's statistics — not approximately, bit-identically.
func TestFullMeasureBitIdentical(t *testing.T) {
	const insts = 20_000
	for _, name := range []string{"gzip", "mcf", "bzip2"} {
		t.Run(name, func(t *testing.T) {
			p := fullRun(t, name, insts)
			want, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			ivs, err := sample.Prepare(image(t, name).Img, sample.Plan{Measure: insts, Intervals: 1}, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			got, err := ivs.Run(context.Background(), harness.BaselineConfig(harness.MDTSFCEnf, insts))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Measured, want) {
				t.Fatalf("sampled 100%% stats differ from full run:\n got %+v\nwant %+v", got.Measured, want)
			}
			if got.IPC != want.IPC() {
				t.Fatalf("IPC %v != %v", got.IPC, want.IPC())
			}
		})
	}
}

// TestTenPercentSampleWithinFivePercent: a systematic sample measuring 10%
// of the instruction span must land within 5% of the full run's IPC on
// steady-state workloads. The detailed-warm length (20k) is what these
// workloads need to reach steady state from cold microarchitectural state
// (caches, gshare, dependence predictor); shorter warms bias the estimate
// low and show up as elevated CV.
func TestTenPercentSampleWithinFivePercent(t *testing.T) {
	const insts = 300_000
	plan := sample.Plan{FastForward: 70_000, Warm: 20_000, Measure: 10_000, Intervals: 3}
	if plan.Span() != insts {
		t.Fatalf("plan spans %d, want %d", plan.Span(), insts)
	}
	for _, name := range []string{"gzip", "mcf", "bzip2"} {
		t.Run(name, func(t *testing.T) {
			p := fullRun(t, name, insts)
			full, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			ivs, err := sample.Prepare(image(t, name).Img, plan, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			got, err := ivs.Run(context.Background(), harness.BaselineConfig(harness.MDTSFCEnf, insts))
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(got.IPC-full.IPC()) / full.IPC()
			t.Logf("%s: full IPC %.4f, sampled %.4f (%.2f%% off, CV %.3f)", name, full.IPC(), got.IPC, 100*rel, got.CV)
			if rel > 0.05 {
				t.Fatalf("sampled IPC %.4f vs full %.4f: %.2f%% error exceeds 5%%", got.IPC, full.IPC(), 100*rel)
			}
			// The warm/measure boundary is cycle-granular (retire width 4),
			// so each interval's measured count is M minus at most one
			// retire group's overshoot.
			target := plan.Measure * uint64(plan.Intervals)
			slack := uint64(4 * plan.Intervals)
			if got.Measured.Retired > target || got.Measured.Retired < target-slack {
				t.Fatalf("measured %d insts, want %d (±%d)", got.Measured.Retired, target, slack)
			}
		})
	}
}

// TestRestoreThenDetailedBitIdentical: restoring a checkpoint (through the
// on-disk store, i.e. a full encode/decode round trip) and running detailed
// must be bit-identical to fast-forwarding the same distance in process —
// the acceptance criterion that pins "checkpoints don't perturb results".
func TestRestoreThenDetailedBitIdentical(t *testing.T) {
	const ff, detailed = 50_000, 10_000
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, detailed)

	// In-process: fast-forward, then detailed from the live machine.
	m := image(t, "bzip2")
	if err := sample.FastForward(m, ff); err != nil {
		t.Fatal(err)
	}
	st := &pipeline.StartState{Regs: m.Regs, PC: m.PC, Mem: m.Mem.Clone()}
	s1, err := replay.MaterializeFrom(m, detailed)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pipeline.NewFrom(cfg, m.Img, s1.All(), st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed: capture at the same point, round-trip through a disk
	// store, restore, then detailed.
	m2 := image(t, "bzip2")
	if err := sample.FastForward(m2, ff); err != nil {
		t.Fatal(err)
	}
	store, err := snapshot.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := snapshot.Key{Workload: m2.Img.Name, Insts: ff}
	if err := store.Put(k, snapshot.Capture(m2)); err != nil {
		t.Fatal(err)
	}
	s, ok, err := store.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	rm, err := s.Machine(m2.Img)
	if err != nil {
		t.Fatal(err)
	}
	st2 := &pipeline.StartState{Regs: rm.Regs, PC: rm.PC, Mem: rm.Mem.Clone()}
	s2, err := replay.MaterializeFrom(rm, detailed)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pipeline.NewFrom(cfg, m2.Img, s2.All(), st2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored-run stats differ from in-process run:\n got %+v\nwant %+v", got, want)
	}
}

// TestPrepareUsesStore: a second preparation over a populated store restores
// every interval start instead of fast-forwarding again.
func TestPrepareUsesStore(t *testing.T) {
	plan := sample.Plan{FastForward: 5_000, Warm: 500, Measure: 500, Intervals: 3}
	store := snapshot.NewMemStore()
	img := image(t, "gzip").Img
	first, err := sample.Prepare(img, plan, store, "")
	if err != nil {
		t.Fatal(err)
	}
	if first.Restored != 0 || first.FFInsts == 0 {
		t.Fatalf("first prepare: restored=%d ff=%d", first.Restored, first.FFInsts)
	}
	second, err := sample.Prepare(img, plan, store, "")
	if err != nil {
		t.Fatal(err)
	}
	if second.Restored != plan.Intervals || second.FFInsts != 0 {
		t.Fatalf("second prepare: restored=%d (want %d), ff=%d (want 0)", second.Restored, plan.Intervals, second.FFInsts)
	}
	// And the prepared intervals are equivalent: same offsets, same streams.
	for i := range first.Ivs {
		a, b := first.Ivs[i].Src, second.Ivs[i].Src
		if first.Ivs[i].Offset != second.Ivs[i].Offset || a.Len() != b.Len() {
			t.Fatalf("interval %d differs between live and restored preparation", i)
		}
		for j := 0; j < a.Len(); j++ {
			if a.Stream().RecordAt(j) != b.Stream().RecordAt(j) {
				t.Fatalf("interval %d record %d differs between live and restored preparation", i, j)
			}
		}
	}
}

// TestFastForwardSpeedup: fast-forwarding 90% of the budget must beat full
// detailed simulation by a wide margin. The default run uses a reduced
// budget and a conservative 3× bar to stay robust on loaded CI machines; set
// SFCMDT_FULL_SPEEDUP=1 for the paper-scale criterion (10M instructions,
// ≥5×).
func TestFastForwardSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	var insts uint64 = 1_000_000
	minSpeedup := 3.0
	if os.Getenv("SFCMDT_FULL_SPEEDUP") != "" {
		insts = 10_000_000
		minSpeedup = 5.0
	}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, insts)
	name := "mcf"

	t0 := time.Now()
	p, err := pipeline.New(cfg, image(t, name).Img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(t0)

	plan := sample.Plan{FastForward: insts * 9 / 10, Measure: insts / 10, Intervals: 1}
	t1 := time.Now()
	ivs, err := sample.Prepare(image(t, name).Img, plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ivs.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	sampledDur := time.Since(t1)

	speedup := float64(fullDur) / float64(sampledDur)
	t.Logf("full %v, ff+detailed %v: %.1fx", fullDur, sampledDur, speedup)
	if speedup < minSpeedup {
		t.Fatalf("fast-forward speedup %.1fx below %.0fx (full %v, sampled %v)", speedup, minSpeedup, fullDur, sampledDur)
	}
}

// TestSampledLockstepReplayIdentical pins sampled preparation to the golden
// model: for every interval Prepare returns, a fresh machine stepped with
// arch.Machine.Step to the interval's offset holds the interval's start
// registers, PC and memory, and Step's records over the next Warm+Measure
// instructions are the interval's stream, record for record, with its
// length and halt flag.
func TestSampledLockstepReplayIdentical(t *testing.T) {
	plan := sample.Plan{FastForward: 4_000, Warm: 500, Measure: 1_000, Intervals: 3}
	for _, name := range []string{"gzip", "mcf"} {
		img := image(t, name).Img
		ivs, err := sample.Prepare(img, plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(ivs.Ivs) != plan.Intervals {
			t.Fatalf("%s: prepared %d intervals, want %d", name, len(ivs.Ivs), plan.Intervals)
		}
		for k, iv := range ivs.Ivs {
			m := arch.New(img)
			for m.Count < iv.Offset {
				if _, err := m.Step(); err != nil {
					t.Fatalf("%s interval %d: Step: %v", name, k, err)
				}
			}
			if iv.Start.Regs != m.Regs || iv.Start.PC != m.PC {
				t.Fatalf("%s interval %d: start regs or PC differ from Step's at offset %d", name, k, iv.Offset)
			}
			if pn, ok := samePages(iv.Start.Mem, m.Mem); !ok {
				t.Fatalf("%s interval %d: start memory page %#x differs from Step's", name, k, pn)
			}
			s := iv.Src.Stream()
			for j := 0; m.Count < iv.Offset+plan.Warm+plan.Measure && !m.Halted; j++ {
				want, err := m.Step()
				if err != nil {
					t.Fatalf("%s interval %d: Step: %v", name, k, err)
				}
				if j >= iv.Src.Len() {
					t.Fatalf("%s interval %d: stream ends after %d records, Step runs on", name, k, iv.Src.Len())
				}
				if got := s.RecordAt(j); got != want {
					t.Fatalf("%s interval %d record %d:\n stream: %+v\n Step:   %+v", name, k, j, got, want)
				}
			}
			if uint64(iv.Src.Len()) != m.Count-iv.Offset || s.Halted != m.Halted {
				t.Fatalf("%s interval %d: stream len=%d halted=%v, Step ran %d halted=%v",
					name, k, iv.Src.Len(), s.Halted, m.Count-iv.Offset, m.Halted)
			}
		}
	}
}

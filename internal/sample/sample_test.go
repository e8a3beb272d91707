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
	tr, err := arch.RunTraceFrom(m, detailed)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pipeline.NewFrom(cfg, m.Img, tr, st)
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
	tr2, err := arch.RunTraceFrom(rm, detailed)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pipeline.NewFrom(cfg, m2.Img, tr2, st2)
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
			if a.RecordAt(j) != b.RecordAt(j) {
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

// TestSampledLockstepReplayIdentical pins sampled-mode replay to the golden
// model: the same plan prepared as columnar streams (Prepare) and as golden
// AoS traces (PrepareTrace), measured under the same configurations, must
// aggregate to identical statistics interval for interval.
func TestSampledLockstepReplayIdentical(t *testing.T) {
	plan := sample.Plan{FastForward: 4_000, Warm: 500, Measure: 1_000, Intervals: 3}
	cfgs := []pipeline.Config{
		harness.BaselineConfig(harness.MDTSFCEnf, 0),
		harness.BaselineConfig(harness.LSQ48x32, 0),
	}
	for _, name := range []string{"gzip", "mcf"} {
		img := image(t, name).Img
		rep, err := sample.Prepare(img, plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sample.PrepareTrace(img, plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			got, err := rep.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *got.Measured != *want.Measured || !reflect.DeepEqual(got.IntervalIPC, want.IntervalIPC) {
				t.Errorf("%s under %s: sampled replay diverged from the trace\nreplay: %+v\ntrace:  %+v",
					name, cfg.Name, *got.Measured, *want.Measured)
			}
		}
	}
}

package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"sfcmdt/internal/bpred"
	"sfcmdt/internal/core"
	"sfcmdt/internal/metrics"
	"sfcmdt/internal/prefetch"
	"sfcmdt/internal/workload"
)

// frontendConfig is the small MDT/SFC test config with the full frontend
// stack enabled: TAGE, stride prefetch, and the PCAX pre-probe.
func frontendConfig(maxInsts uint64) Config {
	cfg := testConfigs(maxInsts)[0]
	cfg.Name = "mdtsfc-frontend"
	cfg.BPred = bpred.TageConfig()
	cfg.Prefetch = prefetch.StrideConfig()
	cfg.Preprobe = core.AddrPredDefaults()
	return cfg
}

// TestTageBeatsGshareOnHistdep is the TAGE acceptance gate: on the
// alternating-trip-count workload, TAGE must end with a strictly lower final
// mispredict rate than an oracle-free gshare of the same storage budget.
// histdep's inner loop exits after runs of 20 and 28 taken back-edges;
// gshare's 12-bit history window is saturated all-taken well before either
// exit, while TAGE's longer tagged histories reach past the previous run
// boundary.
func TestTageBeatsGshareOnHistdep(t *testing.T) {
	const insts = 400_000
	run := func(bp bpred.Config) *metrics.Stats {
		cfg := testConfigs(insts)[0]
		cfg.BPred = bp
		p := buildWorkloadPipeline(t, "histdep", cfg, insts)
		st, err := p.Run()
		if err != nil {
			t.Fatalf("%v: %v", bp.Kind, err)
		}
		return st
	}
	gshare := bpred.DefaultConfig()
	gshare.OracleFixFrac = 0 // the predictor on its own, no oracle help
	gs := run(gshare)
	tg := run(bpred.TageConfig())

	if gs.CondBranches != tg.CondBranches {
		t.Fatalf("branch counts diverged: gshare %d vs tage %d", gs.CondBranches, tg.CondBranches)
	}
	t.Logf("histdep mispredict rate: gshare %.4f (%d), tage %.4f (%d)",
		gs.MispredictRate(), gs.Mispredicts, tg.MispredictRate(), tg.Mispredicts)
	if tg.Mispredicts >= gs.Mispredicts {
		t.Errorf("tage (%d mispredicts) does not beat oracle-free gshare (%d) on histdep",
			tg.Mispredicts, gs.Mispredicts)
	}
	// TAGE should not merely edge out gshare: the pattern is fully learnable
	// with 44-bit history, so demand at least a 4x reduction.
	if tg.Mispredicts*4 > gs.Mispredicts {
		t.Errorf("tage mispredicts %d not <= 1/4 of gshare's %d", tg.Mispredicts, gs.Mispredicts)
	}
	if tg.BPredTaggedProvider == 0 || tg.BPredAllocs == 0 {
		t.Errorf("tage internals not surfaced: provider=%d allocs=%d",
			tg.BPredTaggedProvider, tg.BPredAllocs)
	}
}

// TestStridePrefetchDropsMissRate is the prefetcher acceptance gate: on the
// constant-stride streaming workload, enabling -prefetch=stride must cut the
// L1D demand-miss rate to a fraction of the unprefetched run, with the
// accuracy counters showing the prefetches were actually consumed.
func TestStridePrefetchDropsMissRate(t *testing.T) {
	const insts = 200_000
	run := func(pf prefetch.Config) *metrics.Stats {
		cfg := testConfigs(insts)[0]
		cfg.Prefetch = pf
		p := buildWorkloadPipeline(t, "strided", cfg, insts)
		st, err := p.Run()
		if err != nil {
			t.Fatalf("%v: %v", pf.Kind, err)
		}
		return st
	}
	off := run(prefetch.Config{})
	on := run(prefetch.StrideConfig())

	t.Logf("strided L1D demand-miss rate: off %.4f (%d/%d), on %.4f (%d/%d); issued=%d useful=%d late=%d redundant=%d accuracy=%.3f",
		off.L1DDemandMissRate(), off.L1DMisses, off.L1DHits+off.L1DMisses,
		on.L1DDemandMissRate(), on.L1DMisses, on.L1DHits+on.L1DMisses,
		on.PrefetchIssued, on.PrefetchUseful, on.PrefetchLate, on.PrefetchRedundant,
		on.PrefetchAccuracy())
	if off.PrefetchIssued != 0 || off.PrefetchUseful != 0 {
		t.Errorf("prefetch counters nonzero with prefetcher off: %+v", off)
	}
	if on.PrefetchIssued == 0 {
		t.Fatal("stride prefetcher issued nothing on strided")
	}
	if on.L1DDemandMissRate()*2 > off.L1DDemandMissRate() {
		t.Errorf("prefetch-on demand-miss rate %.4f not <= half of off %.4f",
			on.L1DDemandMissRate(), off.L1DDemandMissRate())
	}
	// On a pure constant-stride workload the prefetcher should be precise.
	if acc := on.PrefetchAccuracy(); acc < 0.5 {
		t.Errorf("prefetch accuracy %.3f < 0.5 on constant-stride streams", acc)
	}
	// Timing must improve, not just the miss counters.
	if on.Cycles >= off.Cycles {
		t.Errorf("prefetching did not speed up strided: %d cycles on vs %d off", on.Cycles, off.Cycles)
	}
}

// TestPreprobeArchitecturallyHarmless is the pre-probe differential gate:
// across 200 random programs, enabling the PCAX pre-probe may change only
// the search-work proxies (the way memos it warms steer later walks) and its
// own Preprobe* counters. Every architectural and timing counter — cycles,
// retires, violations, replays, forwards, flushes — must be bit-identical,
// because the pre-probe touches nothing but lastWay memos that every
// consumer re-validates.
func TestPreprobeArchitecturallyHarmless(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*92821 + 7))
			img := randomProgram(r, fmt.Sprintf("pp%d", seed))
			for _, base := range []Config{testConfigs(4000)[0], schedEquivConfigs()[1]} {
				off, err := New(base, img)
				if err != nil {
					t.Fatalf("%s off: %v", base.Name, err)
				}
				want, err := off.Run()
				if err != nil {
					t.Fatalf("%s off: %v", base.Name, err)
				}
				onCfg := base
				onCfg.Preprobe = core.AddrPredDefaults()
				on, err := New(onCfg, img)
				if err != nil {
					t.Fatalf("%s on: %v", base.Name, err)
				}
				got, err := on.Run()
				if err != nil {
					t.Fatalf("%s on: %v", base.Name, err)
				}
				// Some random programs contain no loads; the pre-probe is
				// only obligated to fire when loads dispatch.
				if got.RetiredLoads > 0 && got.PreprobeLookups == 0 {
					t.Errorf("%s: %d loads retired but pre-probe never consulted", base.Name, got.RetiredLoads)
				}
				// Mask the fields the pre-probe is allowed to change, then
				// demand everything else identical.
				g, w := *got, *want
				g.SearchEntriesMDT, w.SearchEntriesMDT = 0, 0
				g.SearchEntriesSFC, w.SearchEntriesSFC = 0, 0
				g.PreprobeLookups, g.PreprobeHits, g.PreprobeMisses, g.PreprobeWarms = 0, 0, 0, 0
				if g != w {
					t.Errorf("%s: pre-probe changed more than search work:\noff: %+v\non:  %+v", base.Name, w, g)
				}
			}
		})
	}
}

// TestFrontendResetMatchesFresh extends the pooling guarantee to the
// frontend: a pipeline recycled through Reset across frontend on/off and
// predictor-kind changes must run bit-identically to a fresh build, so no
// TAGE table, RPT entry, address-predictor row, or pending-prefetch record
// survives recycling.
func TestFrontendResetMatchesFresh(t *testing.T) {
	const insts = 3000
	plain := testConfigs(insts)[0]
	front := frontendConfig(insts)

	build := func(name string, cfg Config) (*Pipeline, *metrics.Stats) {
		p := buildWorkloadPipeline(t, name, cfg, insts)
		st, err := p.Run()
		if err != nil {
			t.Fatalf("run %s: %v", cfg.Name, err)
		}
		return p, st
	}
	_, freshFront := build("histdep", front)
	_, freshPlain := build("gzip", plain)

	// Recycle one pipeline: plain gzip -> frontend histdep -> plain gzip.
	p, _ := build("gzip", plain)
	reset := func(name string, cfg Config) *metrics.Stats {
		w, _ := workload.Get(name)
		img := w.Build()
		cfg.MaxInsts = insts
		if err := p.Reset(cfg, img, streamView(t, img, insts)); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		st, err := p.Run()
		if err != nil {
			t.Fatalf("run after reset: %v", err)
		}
		return st
	}
	if got := reset("histdep", front); *got != *freshFront {
		t.Errorf("frontend run after plain reset diverged:\nfresh: %+v\ngot:   %+v", *freshFront, *got)
	}
	if got := reset("gzip", plain); *got != *freshPlain {
		t.Errorf("plain run after frontend reset diverged:\nfresh: %+v\ngot:   %+v", *freshPlain, *got)
	}
	// Same-config reuse must also be deterministic (predictor state cleared,
	// not merely compatible).
	if got := reset("histdep", front); *got != *freshFront {
		t.Errorf("second frontend reuse diverged:\nfresh: %+v\ngot:   %+v", *freshFront, *got)
	}
}

// TestFrontendSquashRecovery pins speculative-history recovery with the full
// frontend enabled on a branchy workload: the run must validate retirement
// against the reference stream while squashing heavily, and
// mispredict flushes must leave the TAGE folded histories consistent — any
// drift shows up as validation failure or a mispredict-rate explosion.
func TestFrontendSquashRecovery(t *testing.T) {
	const insts = 100_000
	p := buildWorkloadPipeline(t, "vpr_route", frontendConfig(insts), insts)
	st, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Squashed == 0 || st.MispredictFlushes == 0 {
		t.Fatalf("workload not branchy enough: squashed=%d flushes=%d", st.Squashed, st.MispredictFlushes)
	}
	// Rebuild fresh and re-run: squash recovery must be deterministic.
	q := buildWorkloadPipeline(t, "vpr_route", frontendConfig(insts), insts)
	st2, err := q.Run()
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if *st != *st2 {
		t.Errorf("frontend squash recovery not deterministic:\nfirst:  %+v\nsecond: %+v", *st, *st2)
	}
}

// TestFrontendSteadyStateZeroAllocs extends the zero-alloc gate to the full
// frontend stack: TAGE lookups/updates, prefetch training and issue, and
// pre-probes must not allocate on the steady-state cycle path.
func TestFrontendSteadyStateZeroAllocs(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		p := buildStreamPipeline(t, "strided", frontendConfig(0), 400_000)
		for i := 0; i < 30_000; i++ {
			if !p.Step() {
				t.Fatalf("pipeline finished during warmup (retired %d)", p.Stats().Retired)
			}
		}
		const stepsPerRun = 2000
		avg := testing.AllocsPerRun(5, func() {
			for i := 0; i < stepsPerRun; i++ {
				p.step()
			}
		})
		if p.done {
			t.Fatalf("pipeline finished during measurement (retired %d)", p.Stats().Retired)
		}
		if perCycle := avg / stepsPerRun; perCycle != 0 {
			t.Errorf("frontend steady-state cycle allocates %.4f allocs/cycle, want 0", perCycle)
		}
	})
}

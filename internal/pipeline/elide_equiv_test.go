package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/metrics"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/workload"
)

// TestElideEquivalence pins idle-cycle elision to the stepped oracle the
// same way TestSchedulerEquivalence pins the wakeup scheduler to the linear
// scan: across ~200 random programs and every equivalence configuration
// (all four memory subsystems; see schedEquivConfigs), a run with
// Config.noElide must produce identical statistics to the eliding default —
// every counter in metrics.Stats except CyclesElided itself, which is a
// property of the run loop, not the simulated machine. Any divergence means
// the quiescence predicate skipped a cycle on which a stage could have
// acted, or folded a counter it shouldn't have.
func TestElideEquivalence(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	var totalElided uint64
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)*92821 + 7))
		img := randomProgram(r, fmt.Sprintf("el%d", seed))
		for _, cfg := range schedEquivConfigs() {
			oracleCfg := cfg
			oracleCfg.noElide = true
			oracle, err := New(oracleCfg, img)
			if err != nil {
				t.Fatalf("seed %d %s noelide: %v", seed, cfg.Name, err)
			}
			want, err := oracle.Run()
			if err != nil {
				t.Fatalf("seed %d %s noelide: %v", seed, cfg.Name, err)
			}
			if want.CyclesElided != 0 {
				t.Fatalf("seed %d %s: noElide oracle elided %d cycles", seed, cfg.Name, want.CyclesElided)
			}
			eliding, err := New(cfg, img)
			if err != nil {
				t.Fatalf("seed %d %s elide: %v", seed, cfg.Name, err)
			}
			got, err := eliding.Run()
			if err != nil {
				t.Fatalf("seed %d %s elide: %v", seed, cfg.Name, err)
			}
			totalElided += got.CyclesElided
			got.CyclesElided = 0
			if *got != *want {
				t.Errorf("seed %d %s: elided run diverged from stepped oracle\nstepped: %+v\nelided:  %+v",
					seed, cfg.Name, *want, *got)
			}
		}
	}
	// The matrix must actually exercise elision, not vacuously pass with
	// zero quiescent spans.
	if totalElided == 0 {
		t.Fatal("no cycles were elided across the whole equivalence matrix")
	}
}

// TestElideEquivalencePtrChase anchors the stall-heavy case the elision was
// built for: on the serial L2-miss pointer chase, both memory subsystems
// must match the stepped oracle bit-for-bit while eliding the large
// majority of all cycles.
func TestElideEquivalencePtrChase(t *testing.T) {
	const insts = 30_000
	for _, cfg := range testConfigs(insts) {
		t.Run(cfg.Name, func(t *testing.T) {
			oracleCfg := cfg
			oracleCfg.noElide = true
			oracle := buildWorkloadPipeline(t, "ptrchase", oracleCfg, insts)
			want, err := oracle.Run()
			if err != nil {
				t.Fatal(err)
			}
			eliding := buildWorkloadPipeline(t, "ptrchase", cfg, insts)
			got, err := eliding.Run()
			if err != nil {
				t.Fatal(err)
			}
			elided := got.CyclesElided
			got.CyclesElided = 0
			if *got != *want {
				t.Fatalf("elided run diverged from stepped oracle\nstepped: %+v\nelided:  %+v", *want, *got)
			}
			// Each chase load is an ~112-cycle L2 miss with the machine
			// quiescent for most of it; anything under half elided means
			// the predicate is refusing spans it should prove.
			if elided*2 < got.Cycles {
				t.Fatalf("elided only %d of %d cycles on the pointer chase", elided, got.Cycles)
			}
		})
	}
}

// TestElideWatchdogEquivalence pins the jump's watchdog caps: a run that
// dies on the cycle-limit deadlock guard mid-quiescence must fail on the
// same cycle, with the same error text and statistics, as the stepped loop
// — the jump lands exactly on the deadline instead of sailing past it.
func TestElideWatchdogEquivalence(t *testing.T) {
	cfg := testConfigs(40_000)[0]
	cfg.maxCycles = 5_000 // well inside the chase: trips mid-run

	oracleCfg := cfg
	oracleCfg.noElide = true
	oracle := buildWorkloadPipeline(t, "ptrchase", oracleCfg, 40_000)
	want, wantErr := oracle.Run()
	if wantErr == nil {
		t.Fatal("stepped oracle did not hit the cycle limit")
	}
	eliding := buildWorkloadPipeline(t, "ptrchase", cfg, 40_000)
	got, gotErr := eliding.Run()
	if gotErr == nil {
		t.Fatal("elided run did not hit the cycle limit")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("error text diverged:\nstepped: %v\nelided:  %v", wantErr, gotErr)
	}
	if got.CyclesElided == 0 {
		t.Fatal("run died at the cycle limit without eliding anything")
	}
	got.CyclesElided = 0
	if *got != *want {
		t.Fatalf("stats at the cycle limit diverged\nstepped: %+v\nelided:  %+v", *want, *got)
	}
}

// TestElideCancelMidSkip covers the poll-scheduling fix: one elided jump
// can cross many ctxCheckCycles boundaries, and the loop must rebase its
// next poll on the post-jump cycle so a canceled context is still observed
// within one poll interval of wall-clock work. The context is canceled
// before the run starts; the run must abandon at (about) the first poll
// boundary even though the clock is leaping hundreds of cycles at a time.
func TestElideCancelMidSkip(t *testing.T) {
	const insts = 100_000 // ~3.8M cycles of chase: far past the cancel point
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, runner := range []struct {
		name string
		run  func(p *Pipeline) error
	}{
		{"RunContext", func(p *Pipeline) error { _, err := p.RunContext(ctx); return err }},
		{"RunUntilRetired", func(p *Pipeline) error { _, err := p.RunUntilRetired(ctx, insts); return err }},
	} {
		t.Run(runner.name, func(t *testing.T) {
			p := buildWorkloadPipeline(t, "ptrchase", testConfigs(insts)[0], insts)
			err := runner.run(p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			st := p.Stats()
			if st.CyclesElided == 0 {
				t.Fatal("no cycles elided before the poll — the test exercised nothing")
			}
			// The first poll boundary is ctxCheckCycles in; the overshoot
			// past it is at most one elided jump, which on this workload is
			// bounded by the L2-miss latency. 2*ctxCheckCycles is generous.
			if st.Cycles > 2*ctxCheckCycles {
				t.Fatalf("canceled run still simulated %d cycles (poll cadence not rebased after jumps?)", st.Cycles)
			}
		})
	}
}

// TestElideResetReuse recycles one pipeline between eliding and stepped
// runs, the way the harness's pipeline pool does, so elision state (there
// should be none — it is all derived per cycle) can never leak across
// Reset.
func TestElideResetReuse(t *testing.T) {
	r := rand.New(rand.NewSource(424243))
	img := randomProgram(r, "elreuse")
	cfg := schedEquivConfigs()[0]
	noElideCfg := cfg
	noElideCfg.noElide = true

	v := streamView(t, img, cfg.MaxInsts)
	p, err := NewWithTrace(noElideCfg, img, v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := *want
	for i := 0; i < 3; i++ {
		for _, c := range []Config{cfg, noElideCfg} {
			if err := p.Reset(c, img, v); err != nil {
				t.Fatal(err)
			}
			got, err := p.Run()
			if err != nil {
				t.Fatalf("round %d %s noelide=%v: %v", i, c.Name, c.noElide, err)
			}
			got.CyclesElided = 0
			if *got != ref {
				t.Fatalf("round %d %s noelide=%v: stats diverged after reset reuse\nwant: %+v\ngot:  %+v",
					i, c.Name, c.noElide, ref, *got)
			}
		}
	}
}

// TestElideSampledEquivalence pins idle-cycle elision on sampled intervals,
// driven the way the sample package drives the pipeline: each interval
// starts from a fast-forwarded architectural state on a replay stream
// materialized from it, on one pipeline built by NewFrom and recycled by
// ResetFrom, warms with RunUntilRetired and measures with RunContext.
// Against the stepped oracle, the statistics at the warm-up boundary and at
// the end of every interval must match exactly — elision changes how the
// clock advances, never what an interval measures; CyclesElided, a run-loop
// property, is the one field normalized. The pointer chase makes elided
// spans dominate; gzip covers the mostly-busy case where spans are rare.
// sample.TestParallelSerialBitIdentical covers interval-parallel runs.
func TestElideSampledEquivalence(t *testing.T) {
	const ff, warm, measure, intervals = 2_000, 300, 700, 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range []string{"ptrchase", "gzip"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		img := w.Build()
		for _, cfg := range testConfigs(0) {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				oracleCfg := cfg
				oracleCfg.noElide = true
				m := arch.New(img)
				var pipes [2]*Pipeline // stepped oracle, eliding
				var elided uint64
				for k := 0; k < intervals; k++ {
					for target := m.Count + ff; m.Count < target && !m.Halted; {
						if _, err := m.Step(); err != nil {
							t.Fatal(err)
						}
					}
					st := &StartState{Regs: m.Regs, PC: m.PC, Mem: m.Mem.Clone()}
					s, err := replay.MaterializeFrom(m, warm+measure)
					if err != nil {
						t.Fatal(err)
					}
					if m.Halted {
						t.Fatalf("%s halted in interval %d", name, k)
					}
					var warmed, final [2]metrics.Stats
					for i, c := range []Config{oracleCfg, cfg} {
						if pipes[i] == nil {
							pipes[i], err = NewFrom(c, img, s.All(), st)
						} else {
							err = pipes[i].ResetFrom(c, img, s.All(), st)
						}
						if err != nil {
							t.Fatal(err)
						}
						ws, err := pipes[i].RunUntilRetired(ctx, warm)
						if err != nil {
							t.Fatalf("interval %d noelide=%v warm: %v", k, c.noElide, err)
						}
						warmed[i] = *ws
						fs, err := pipes[i].RunContext(ctx)
						if err != nil {
							t.Fatalf("interval %d noelide=%v: %v", k, c.noElide, err)
						}
						final[i] = *fs
					}
					if final[0].Retired != warm+measure || final[0].CyclesElided != 0 {
						t.Fatalf("interval %d: stepped oracle retired %d (want %d) and elided %d cycles",
							k, final[0].Retired, warm+measure, final[0].CyclesElided)
					}
					elided += final[1].CyclesElided
					warmed[1].CyclesElided, final[1].CyclesElided = 0, 0
					if warmed[1] != warmed[0] {
						t.Errorf("interval %d: stats at the warm-up boundary diverged\nstepped: %+v\nelided:  %+v", k, warmed[0], warmed[1])
					}
					if final[1] != final[0] {
						t.Errorf("interval %d: measured stats diverged\nstepped: %+v\nelided:  %+v", k, final[0], final[1])
					}
				}
				if name == "ptrchase" && elided == 0 {
					t.Fatal("sampled pointer chase elided nothing")
				}
			})
		}
	}
}

package pipeline

import (
	"strings"
	"testing"

	"sfcmdt/internal/prog"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/workload"
)

// streamView materializes img's reference stream over at most n
// instructions and returns its whole view, bound to img.
func streamView(t testing.TB, img *prog.Image, n uint64) *replay.View {
	t.Helper()
	s, err := replay.Materialize(img, n)
	if err != nil {
		t.Fatalf("%s: Materialize: %v", img.Name, err)
	}
	return s.All()
}

// buildWorkloadPipeline materializes a real workload's stream and binds a
// pipeline to its view through NewWithTrace, as the harness and bench/ do,
// with a budget large enough that the tests below never hit its end.
func buildWorkloadPipeline(t *testing.T, name string, cfg Config, maxInsts uint64) *Pipeline {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	img := w.Build()
	cfg.MaxInsts = maxInsts
	p, err := NewWithTrace(cfg, img, streamView(t, img, maxInsts))
	if err != nil {
		t.Fatalf("NewWithTrace: %v", err)
	}
	return p
}

// buildStreamPipeline is buildWorkloadPipeline through New, which
// materializes the stream itself, so the zero-alloc tests cover both ways a
// pipeline is built.
func buildStreamPipeline(t *testing.T, name string, cfg Config, maxInsts uint64) *Pipeline {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	cfg.MaxInsts = maxInsts
	p, err := New(cfg, w.Build())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// TestSteadyStateCycleZeroAllocs is the tentpole's acceptance gate: once the
// entry pool, rings, and event wheel are warm, stepping the pipeline must
// not allocate. The only sanctioned allocation on the cycle path is the
// *Violation record attached to a (rare) memory-ordering violation, so the
// test uses a streaming workload with no violations and demands exactly
// zero.
func TestSteadyStateCycleZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		build func(*testing.T, string, Config, uint64) *Pipeline
	}{
		{"mdtsfc", testConfigs(0)[0], buildWorkloadPipeline},
		{"lsq", testConfigs(0)[1], buildWorkloadPipeline},
		{"mdtsfc-stream", testConfigs(0)[0], buildStreamPipeline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t, "swim", tc.cfg, 400_000)
			// Warm up: fill the entry pool, rings, wheel buckets, and the
			// memory image's store-touched pages.
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
				t.Fatalf("pipeline finished during measurement (retired %d); raise MaxInsts", p.Stats().Retired)
			}
			perCycle := avg / stepsPerRun
			if perCycle != 0 {
				t.Errorf("steady-state cycle allocates %.4f allocs/cycle (%.0f per %d cycles), want 0",
					perCycle, avg, stepsPerRun)
			}
		})
	}
}

// TestElideLoopZeroAllocs extends the zero-alloc guarantee to the eliding
// run loop: step-plus-tryElide on the stall-heavy pointer chase — quiescence
// proofs, NextAt scans, and closed-form folds included — must not allocate.
// The chase has no memory-ordering violations, so the demand is exactly
// zero, same as the stepped gate above.
func TestElideLoopZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		build func(*testing.T, string, Config, uint64) *Pipeline
	}{
		{"mdtsfc", testConfigs(0)[0], buildWorkloadPipeline},
		{"lsq", testConfigs(0)[1], buildWorkloadPipeline},
		{"mdtsfc-stream", testConfigs(0)[0], buildStreamPipeline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t, "ptrchase", tc.cfg, 400_000)
			if !p.elides() {
				t.Fatal("config does not elide")
			}
			for i := 0; i < 2_000 || p.Stats().CyclesElided == 0; i++ {
				if !p.Step() {
					t.Fatalf("pipeline finished during warmup (retired %d)", p.Stats().Retired)
				}
				p.tryElide()
			}
			const stepsPerRun = 500
			before := p.Stats().CyclesElided
			avg := testing.AllocsPerRun(5, func() {
				for i := 0; i < stepsPerRun; i++ {
					p.step()
					if !p.done {
						p.tryElide()
					}
				}
			})
			if p.done {
				t.Fatalf("pipeline finished during measurement (retired %d); raise MaxInsts", p.Stats().Retired)
			}
			if p.Stats().CyclesElided == before {
				t.Fatal("measurement window elided nothing")
			}
			perIter := avg / stepsPerRun
			if perIter != 0 {
				t.Errorf("eliding loop allocates %.4f allocs per step+elide (%.0f per %d), want 0",
					perIter, avg, stepsPerRun)
			}
		})
	}
}

// TestResetMatchesFresh verifies that a pipeline recycled through Reset —
// even across a change of workload, memory subsystem, and geometry — runs
// bit-identically to a freshly-constructed pipeline.
func TestResetMatchesFresh(t *testing.T) {
	cfgs := testConfigs(3000)
	run := func(p *Pipeline) interface{} {
		st, err := p.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return *st
	}

	// Fresh runs.
	freshA := run(buildWorkloadPipeline(t, "gzip", cfgs[0], 3000))
	freshB := run(buildWorkloadPipeline(t, "mcf", cfgs[1], 3000))

	// Pooled runs: one pipeline, reset across workloads and subsystems.
	p := buildWorkloadPipeline(t, "mcf", cfgs[1], 3000)
	run(p) // dirty every structure with a full mcf/LSQ run

	wA, _ := workload.Get("gzip")
	imgA := wA.Build()
	cfgA := cfgs[0]
	cfgA.MaxInsts = 3000
	if err := p.Reset(cfgA, imgA, streamView(t, imgA, 3000)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := run(p); got != freshA {
		t.Errorf("reset pipeline (LSQ→MDTSFC, mcf→gzip) diverged from fresh run:\n got  %+v\n want %+v", got, freshA)
	}

	wB, _ := workload.Get("mcf")
	imgB := wB.Build()
	cfgB := cfgs[1]
	cfgB.MaxInsts = 3000
	if err := p.Reset(cfgB, imgB, streamView(t, imgB, 3000)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := run(p); got != freshB {
		t.Errorf("reset pipeline (MDTSFC→LSQ, gzip→mcf) diverged from fresh run:\n got  %+v\n want %+v", got, freshB)
	}
}

// TestResetRejectsUnboundView pins the binding check: a view of another
// program's stream, and a view of the program's own stream decoded but
// never bound, fail NewWithTrace and Reset with an error instead of running
// against the wrong predecode table, and a failed Reset leaves the pipeline
// as it was.
func TestResetRejectsUnboundView(t *testing.T) {
	const insts = 2000
	gzip, _ := workload.Get("gzip")
	mcf, _ := workload.Get("mcf")
	img := mcf.Build()
	cfg := testConfigs(insts)[0]
	good := streamView(t, img, insts)
	unbound, err := replay.Decode(good.Stream().Encode())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWithTrace(cfg, img, good)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := *st
	for _, tc := range []struct {
		name string
		v    *replay.View
	}{
		{"gzip's stream", streamView(t, gzip.Build(), insts)},
		{"unbound", unbound.All()},
	} {
		const want = "is not bound to image"
		if _, err := NewWithTrace(cfg, img, tc.v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: NewWithTrace returned %v, want an error containing %q", tc.name, err, want)
		}
		if err := p.Reset(cfg, img, tc.v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Reset returned %v, want an error containing %q", tc.name, err, want)
		}
	}
	if err := p.Reset(cfg, img, good); err != nil {
		t.Fatal(err)
	}
	got, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *got != ref {
		t.Errorf("run after the rejected Resets diverged:\n got  %+v\n want %+v", *got, ref)
	}
}

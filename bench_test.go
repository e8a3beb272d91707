// Package sfcmdt_test is the benchmark harness: one benchmark per paper
// table/figure (each regenerates the corresponding experiment at a reduced
// instruction budget; use cmd/sfcbench for full-size runs), plus
// micro-benchmarks for the per-access cost of the address-indexed SFC/MDT
// versus the LSQ's associative searches — the stand-in for the paper's
// latency/power argument.
//
// Run with:
//
//	go test -bench=. -benchmem
package sfcmdt_test

import (
	"testing"

	"sfcmdt/internal/core"
	"sfcmdt/internal/harness"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sched"
	"sfcmdt/internal/seqnum"
	"sfcmdt/internal/workload"
	"sfcmdt/sim"
)

// benchInsts keeps the macro-benchmarks fast; sfcbench uses 200k+.
const benchInsts = 10_000

func benchTable(b *testing.B, run func(r *sim.Runner) (*sim.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchInsts)
		if _, err := run(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Configs measures configuration construction (table E1).
func BenchmarkFigure4Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.Figure4()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure5 regenerates the baseline-processor comparison (E2).
func BenchmarkFigure5(b *testing.B) { benchTable(b, sim.Figure5) }

// BenchmarkFigure6 regenerates the aggressive-processor comparison (E3).
func BenchmarkFigure6(b *testing.B) { benchTable(b, sim.Figure6) }

// BenchmarkViolations regenerates the anti+output violation table (E4).
func BenchmarkViolations(b *testing.B) { benchTable(b, sim.Violations) }

// BenchmarkEnfVsNotEnf regenerates the aggressive ENF comparison (E5).
func BenchmarkEnfVsNotEnf(b *testing.B) { benchTable(b, sim.EnfVsNotEnf) }

// BenchmarkConflicts regenerates the structural-conflict table (E6).
func BenchmarkConflicts(b *testing.B) { benchTable(b, sim.Conflicts) }

// BenchmarkAssoc16 regenerates the associativity experiment (E7).
func BenchmarkAssoc16(b *testing.B) { benchTable(b, sim.Assoc16) }

// BenchmarkCorruption regenerates the corruption-rate table (E8).
func BenchmarkCorruption(b *testing.B) { benchTable(b, sim.Corruption) }

// BenchmarkGranularity regenerates the MDT granularity sweep (E9).
func BenchmarkGranularity(b *testing.B) {
	benchTable(b, func(r *sim.Runner) (*sim.Table, error) {
		return sim.Granularity(r, []string{"gzip", "mcf"})
	})
}

// BenchmarkRecovery regenerates the recovery-policy ablation (E10).
func BenchmarkRecovery(b *testing.B) {
	benchTable(b, func(r *sim.Runner) (*sim.Table, error) {
		return sim.Recovery(r, []string{"vpr_route", "mesa"})
	})
}

// BenchmarkTaggedVsUntagged regenerates the tagging ablation (E11).
func BenchmarkTaggedVsUntagged(b *testing.B) {
	benchTable(b, func(r *sim.Runner) (*sim.Table, error) {
		return sim.TaggedVsUntagged(r, []string{"gzip", "twolf"})
	})
}

// ---------------------------------------------------------------------------
// Whole-pipeline throughput (simulated instructions per wall-clock second).

func benchPipeline(b *testing.B, cfg sim.Config, name string) {
	b.Helper()
	w, ok := sim.Workload(name)
	if !ok {
		b.Fatal("unknown workload")
	}
	img := w.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.MaxInsts), "insts/op")
}

func BenchmarkPipelineBaselineMDTSFC(b *testing.B) {
	benchPipeline(b, sim.Baseline(sim.MDTSFCEnf, benchInsts), "gcc")
}

func BenchmarkPipelineBaselineLSQ(b *testing.B) {
	benchPipeline(b, sim.Baseline(sim.LSQ48x32, benchInsts), "gcc")
}

func BenchmarkPipelineAggressiveMDTSFC(b *testing.B) {
	benchPipeline(b, sim.Aggressive(sim.MDTSFCTotal, benchInsts), "gcc")
}

func BenchmarkPipelineAggressiveLSQ(b *testing.B) {
	benchPipeline(b, sim.Aggressive(sim.LSQ120x80, benchInsts), "gcc")
}

// BenchmarkGoldenModel measures the functional simulator alone: one
// materialization of the reference stream a run binds.
func BenchmarkGoldenModel(b *testing.B) {
	w, _ := sim.Workload("gcc")
	img := w.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Materialize(img, benchInsts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Structure micro-benchmarks: the simulation-level analogue of the paper's
// circuit argument. An SFC/MDT access inspects one set (O(associativity));
// an LSQ search walks the in-flight queue (O(occupancy)).

func BenchmarkSFCStoreLoadPair(b *testing.B) {
	sfc := core.NewSFC(core.SFCConfig{Sets: 512, Ways: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%4096) * 8
		sfc.StoreWrite(seq(i), addr, 8, uint64(i))
		sfc.LoadRead(addr, 8)
		sfc.RetireStore(seq(i), addr)
	}
}

func BenchmarkMDTAccessPair(b *testing.B) {
	mdt := core.NewMDT(core.MDTConfig{Sets: 8192, Ways: 2, GranBytes: 8, Tagged: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%8192) * 8
		mdt.AccessStore(seq(i), 0x100, addr, 8)
		mdt.AccessLoad(seq(i)+1, 0x104, addr, 8)
		mdt.RetireStore(seq(i), addr, 8)
		mdt.RetireLoad(seq(i)+1, addr, 8)
	}
}

// BenchmarkLSQSearch measures the associative store-queue search with the
// paper's aggressive occupancy (80 in-flight stores): every load walks the
// whole queue, which is what motivates the address-indexed replacement.
func BenchmarkLSQSearch(b *testing.B) {
	lsq := core.NewLSQ(core.LSQConfig{LoadEntries: 120, StoreEntries: 80})
	memRead := func(addr uint64, size int) uint64 { return 0 }
	var s uint64
	for i := 0; i < 80; i++ {
		s++
		lsq.DispatchStore(seq(int(s)), 0)
		lsq.ExecuteStore(seq(int(s)), uint64(i)*8, 8, uint64(i), memRead)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s++
		ls := seq(int(s))
		lsq.DispatchLoad(ls, 0)
		lsq.ExecuteLoad(ls, uint64(i%80)*8, 8, memRead)
		lsq.SquashFrom(ls) // keep the load queue from growing
	}
}

// ---------------------------------------------------------------------------
// Cycle-loop micro-benchmarks: the event wheel that replaced the seed's
// map-of-slices scheduler, and one warm pipeline cycle.

// BenchmarkEventWheel models the pipeline's real event mix — a few
// completions scheduled per cycle at latencies spread across the wheel
// horizon, drained every cycle — and, in its NextAt case, the elision
// probe across a 99-cycle idle gap at the pipeline's 128-bucket horizon.
func BenchmarkEventWheel(b *testing.B) {
	b.Run("schedule-due", func(b *testing.B) {
		w := sched.NewWheel[int](64)
		var now uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4; j++ {
				w.Schedule(now, now+uint64(1+(i+j)%48), j)
			}
			now++
			w.Due(now)
		}
	})
	b.Run("nextat-gap100", func(b *testing.B) {
		w := sched.NewWheel[int](128)
		w.Schedule(0, 100, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if at, _ := w.NextAt(1); at != 100 {
				b.Fatalf("NextAt(1) = %d, want 100", at)
			}
		}
	})
}

// BenchmarkPipelineStallCycle measures the eliding run loop on a stall
// workload: full ptrchase runs under the baseline MDT/SFC + ENF machine on
// a warm pipeline re-armed through Reset, reported per simulated cycle.
// Most of ptrchase's cycles wait on one L2 miss and are elided. Reset runs
// with the timer stopped, so ns/cycle and allocs/op cover Run alone: Reset
// reloads ptrchase's 2 MB data image into fresh memory pages.
func BenchmarkPipelineStallCycle(b *testing.B) {
	const insts = 20_000
	w, ok := workload.Get("ptrchase")
	if !ok {
		b.Fatal("workload ptrchase not registered")
	}
	img := w.Build()
	s, err := replay.Materialize(img, insts)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, insts)
	p, err := pipeline.NewWithTrace(cfg, img, s.All())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := p.Reset(cfg, img, s.All()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkPipelineSteadyCycle measures one warm pipeline cycle, bound to a
// replay stream as production binds it. Expect 0 allocs/op.
func BenchmarkPipelineSteadyCycle(b *testing.B) {
	const insts = 400_000
	build := func() *pipeline.Pipeline {
		w, ok := workload.Get("swim")
		if !ok {
			b.Fatal("workload swim not registered")
		}
		p, err := pipeline.New(harness.BaselineConfig(harness.MDTSFCEnf, insts), w.Build())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 20_000; i++ {
			p.Step()
		}
		return p
	}
	p := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Step() {
			b.StopTimer()
			p = build()
			b.StartTimer()
		}
	}
}

// BenchmarkWorkloadGenerators measures program construction.
func BenchmarkWorkloadGenerators(b *testing.B) {
	ws := workload.All()
	for i := 0; i < b.N; i++ {
		ws[i%len(ws)].Build()
	}
}

// BenchmarkRunnerFigure5Parallel measures the harness's parallel fan-out.
func BenchmarkRunnerFigure5Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(2000)
		if _, err := harness.Figure5(r); err != nil {
			b.Fatal(err)
		}
	}
}

func seq(i int) seqnum.Seq { return seqnum.Seq(i + 1) }

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/bpred"
	"sfcmdt/internal/core"
	"sfcmdt/internal/harness"
	"sfcmdt/internal/mem"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prefetch"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/sched"
	"sfcmdt/internal/seqnum"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// benchResult is one line of the machine-readable benchmark report
// (BENCH_PR6.json). MIPS (simulated instructions retired per wall-clock
// microsecond) is reported only by the whole-simulator entries; the structure
// micro-benchmarks leave it zero.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	MIPS        float64 `json:"mips,omitempty"`
}

type benchEntry struct {
	name string
	run  func(insts uint64) (benchResult, error)
}

// fromResult converts a testing.BenchmarkResult into our report row.
func fromResult(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// ---------------------------------------------------------------------------
// Calibration: a fixed pure-arithmetic loop with no memory traffic. Its
// ns/op measures only how fast this machine is running right now, so the
// baseline comparator can divide it out and compare shapes rather than
// absolute nanoseconds — a report taken on a quiet machine stays usable as
// a baseline on a loaded (or simply different) one.

func benchCalibration(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		var x uint64 = 0x9E3779B97F4A7C15
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		}
		if x == 0 {
			b.Fatal("unreachable")
		}
	})
	return fromResult(calibrationName, res), nil
}

const calibrationName = "cpu-calibration"

// ---------------------------------------------------------------------------
// Event scheduling: the seed kept completion events in a
// map[cycle][]*entry — every Schedule hashed, every cycle probed the map,
// and the per-cycle slices churned the heap. The wheel replaces all of that
// with a masked ring index. The benchmark models the pipeline's real event
// mix: a few events per cycle, latencies spread across the wheel horizon,
// drained every cycle.

const (
	churnEventsPerCycle = 4
	churnMaxLatency     = 48
)

func benchEventWheel(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		w := sched.NewWheel[int](64)
		var now uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < churnEventsPerCycle; j++ {
				w.Schedule(now, now+uint64(1+(i+j)%churnMaxLatency), j)
			}
			now++
			w.Due(now)
		}
	})
	return fromResult("event-wheel-cycle", res), nil
}

// ---------------------------------------------------------------------------
// Entry churn: the seed allocated a fresh ROB entry (plus its RAT-snapshot
// slice) per dispatched instruction. The benchmark models the pipeline's free
// list that replaced it.

type churnEntry struct {
	seq, pc, addr, val uint64
	ratSnap            []uint64
	flags              [4]bool
}

const churnRegs = 32

func benchEntryPooled(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		var pool []*churnEntry
		live := make([]*churnEntry, 0, churnEventsPerCycle)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < churnEventsPerCycle; j++ {
				var e *churnEntry
				if n := len(pool); n > 0 {
					e = pool[n-1]
					pool = pool[:n-1]
					snap := e.ratSnap
					*e = churnEntry{ratSnap: snap}
				} else {
					e = &churnEntry{ratSnap: make([]uint64, churnRegs)}
				}
				e.seq = uint64(i)
				live = append(live, e)
			}
			for _, e := range live {
				pool = append(pool, e)
			}
			live = live[:0]
		}
	})
	return fromResult("entry-pooled-cycle", res), nil
}

// ---------------------------------------------------------------------------
// Memory-substrate micro-benchmarks: the word-granular Sparse paths and the
// page-pointer TLB. mem-read-word stays inside a few pages (page resolution
// amortized, measuring the word decode path); mem-tlb strides a page per
// access across a TLB-resident working set, measuring pure page resolution.

// benchSink defeats dead-code elimination of pure read loops.
var benchSink uint64

func benchMemReadWord(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		m := mem.NewSparse()
		for a := uint64(0); a < 4<<12; a += 8 {
			m.WriteWord64(a, a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var x uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i%2048) * 8 // 16 KB = 4 pages
			m.WriteWord64(addr, x)
			x ^= m.ReadWord64(addr)
		}
		benchSink = x
	})
	return fromResult("mem-read-word", res), nil
}

func benchMemTLB(uint64) (benchResult, error) {
	const pages = 32 // half the TLB: every access resolves a different page, all hits
	res := testing.Benchmark(func(b *testing.B) {
		m := mem.NewSparse()
		for p := uint64(0); p < pages; p++ {
			m.WriteWord64(p<<12, p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var x uint64
		for i := 0; i < b.N; i++ {
			x ^= m.ReadWord64(uint64(i%pages) << 12)
		}
		benchSink = x
	})
	return fromResult("mem-tlb", res), nil
}

// ---------------------------------------------------------------------------
// Address-indexed structure micro-benchmarks (ISSUE satellite: SFC
// lookup/insert, MDT probe, store-FIFO push-pop).

func benchSFC(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		s := core.NewSFC(core.SFCConfig{Sets: 512, Ways: 2})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sq := seqnum.Seq(i + 1)
			addr := uint64(i%4096) * 8
			s.SetBound(sq)
			if s.CanWrite(addr) {
				s.StoreWrite(sq, addr, 8, uint64(i))
			}
			s.LoadRead(addr, 8)
			s.RetireStore(sq, addr)
		}
	})
	return fromResult("sfc-store-load-retire", res), nil
}

// benchSFCProbe measures the probe path alone — repeated CanWrite/LoadRead
// against resident lines, the case the per-set way memo accelerates —
// without the allocate/retire churn of sfc-store-load-retire.
func benchSFCProbe(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		s := core.NewSFC(core.SFCConfig{Sets: 512, Ways: 2})
		for i := 0; i < 512; i++ {
			s.StoreWrite(seqnum.Seq(i+1), uint64(i)*8, 8, uint64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := uint64(i%512) * 8
			s.CanWrite(addr)
			s.LoadRead(addr, 8)
		}
	})
	return fromResult("sfc-probe", res), nil
}

func benchMDT(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		m := core.NewMDT(core.MDTConfig{Sets: 8192, Ways: 2, GranBytes: 8, Tagged: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := seqnum.Seq(2*i + 1)
			ld := seqnum.Seq(2*i + 2)
			addr := uint64(i%8192) * 8
			m.SetBound(st)
			m.AccessStore(st, 0x100, addr, 8)
			m.AccessLoad(ld, 0x104, addr, 8)
			m.RetireStore(st, addr, 8)
			m.RetireLoad(ld, addr, 8)
		}
	})
	return fromResult("mdt-probe-pair", res), nil
}

func benchStoreFIFO(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		f := core.NewStoreFIFO(32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sq := seqnum.Seq(i + 1)
			f.Dispatch(sq)
			f.Execute(sq, 0x3000, 8, uint64(i))
			f.FirstUnexecuted()
			f.Retire(sq)
		}
	})
	return fromResult("storefifo-push-pop", res), nil
}

// ---------------------------------------------------------------------------
// Frontend structure micro-benchmarks (DESIGN.md §14): the per-branch TAGE
// flow (predict, speculate, resolve on mispredict, train at retire), the
// stride prefetcher's per-miss Observe, and the pre-probe table's
// predict+train pair. Each models its structure's real per-event call
// sequence in the pipeline, so the rows read as the marginal frontend cost
// per branch / per miss / per dispatched load. All three are zero-alloc on
// the cycle path and the baseline gates exactly that.

func benchTageLookup(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		p := bpred.New(bpred.TageConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// 64 static branches; outcomes flip at PC-dependent periods so
			// the tagged tables (not just the bimodal base) carry state.
			pc := uint64(0x1000 + (i%64)*4)
			taken := (i>>(2+i%5))&1 == 1
			pred := p.Predict(pc)
			before := p.History()
			p.Speculate(pred)
			if pred != taken {
				p.Resolve(before, taken)
			}
			p.Update(pc, before, taken)
		}
	})
	return fromResult("tage-lookup", res), nil
}

func benchPrefetchTrain(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		s := prefetch.NewStride(prefetch.StrideConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// 8 interleaved streams, one PC each, all stride 64: every
			// observation past warmup is the trained fast path that emits
			// Degree candidates.
			pc := uint64(0x2000 + (i%8)*4)
			addr := uint64(i/8) * 64
			benchSink += uint64(len(s.Observe(pc, addr)))
		}
	})
	return fromResult("prefetch-train", res), nil
}

func benchPreprobeProbe(uint64) (benchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		a := core.NewAddrPred(core.AddrPredDefaults())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pipeline's per-load pair: PredictAddr at dispatch, Train at
			// execute. 16 strided PCs keep every probe a confident hit.
			pc := uint64(0x3000 + (i%16)*4)
			if pa, ok := a.PredictAddr(pc); ok {
				benchSink += pa
			}
			a.Train(pc, uint64(i/16)*8)
		}
	})
	return fromResult("preprobe-probe", res), nil
}

// ---------------------------------------------------------------------------
// Checkpoint & sampling entries: the functional fast-forward rate (the speed
// that makes paper-scale instruction budgets tractable — compare its MIPS
// against pipeline-steady-cycle's) and the snapshot encode/decode round trip
// (the fixed cost of materializing or restoring one checkpoint).

func benchFastForward(uint64) (benchResult, error) {
	w, ok := workload.Get("mcf")
	if !ok {
		return benchResult{}, fmt.Errorf("workload mcf not registered")
	}
	img := w.Build()
	res := testing.Benchmark(func(b *testing.B) {
		m := arch.New(img)
		b.ReportAllocs()
		b.ResetTimer()
		if err := sample.FastForward(m, uint64(b.N)); err != nil {
			b.Fatal(err)
		}
		if m.Count != uint64(b.N) {
			b.Fatalf("fast-forwarded %d insts, want %d (program halted?)", m.Count, b.N)
		}
	})
	row := fromResult("fastforward-inst", res)
	if row.NsPerOp > 0 {
		row.MIPS = 1e3 / row.NsPerOp // one op = one instruction
	}
	return row, nil
}

func benchSnapshotRoundtrip(uint64) (benchResult, error) {
	w, ok := workload.Get("gzip")
	if !ok {
		return benchResult{}, fmt.Errorf("workload gzip not registered")
	}
	m := arch.New(w.Build())
	if err := sample.FastForward(m, 50_000); err != nil {
		return benchResult{}, err
	}
	s := snapshot.Capture(m)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := s.Encode()
			if _, err := snapshot.Decode(enc); err != nil {
				b.Fatal(err)
			}
			benchSink += uint64(len(enc))
		}
	})
	return fromResult("snapshot-roundtrip", res), nil
}

// ---------------------------------------------------------------------------
// Sampled-run entries (DESIGN.md §11): one prepared K-interval plan measured
// end to end — serially (the oracle the parallel pool must match
// bit-for-bit) and with the interval-parallel pool. One op = one full
// sampled measurement of all K intervals; MIPS counts the detailed
// instructions (warm + measured) that run per op. Preparation (functional
// pass, checkpoint capture) happens once, off the clock, exactly as a sweep
// amortizes it across configurations. sample-run-serial is fully gated;
// sample-run-parallel's timing scales with the host's core count (parity
// with serial on a 1-core box, ~min(K, cores)x faster on a multicore), so
// it is machineDependent — reported, never gated.

func benchSampleRun(name string, parallel int) (benchResult, error) {
	w, ok := workload.Get("mcf")
	if !ok {
		return benchResult{}, fmt.Errorf("workload mcf not registered")
	}
	plan := sample.Plan{FastForward: 5_000, Warm: 1_000, Measure: 2_000, Intervals: 8}
	ivs, err := sample.Prepare(w.Build(), plan, nil, "")
	if err != nil {
		return benchResult{}, err
	}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, plan.Warm+plan.Measure)
	var detailed uint64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := ivs.RunParallel(context.Background(), cfg, parallel, nil)
			if err != nil {
				b.Fatal(err)
			}
			detailed = r.WarmInsts + r.Measured.Retired
		}
	})
	row := fromResult(name, res)
	if row.NsPerOp > 0 {
		row.MIPS = float64(detailed) * 1e3 / row.NsPerOp
	}
	return row, nil
}

func benchSampleRunSerial(uint64) (benchResult, error) {
	return benchSampleRun("sample-run-serial", 1)
}

func benchSampleRunParallel(uint64) (benchResult, error) {
	return benchSampleRun("sample-run-parallel", 0)
}

// ---------------------------------------------------------------------------
// Replay-substrate entries (DESIGN.md §10): the one-time cost of
// materializing a columnar reference stream (the functional pass a sweep
// pays once per workload) and the steady-state cycle cost of the detailed
// pipeline consuming a pre-materialized stream (what every grid point pays).
// Compare replay-materialize-inst's MIPS against fastforward-inst's to see
// the column-append overhead on top of the bare functional model, and
// replay-consume-cycle against pipeline-steady-cycle (which drives the
// AoS lockstep trace) to confirm stream consumption costs nothing extra.

// benchReplayMaterialize streams in fixed-size spans from one warm machine
// rather than asking for a single b.N-record stream: real sweeps materialize
// bounded spans too, and a 20M-record column set would otherwise spend the
// benchmark re-growing and garbage-collecting hundred-MB slices instead of
// measuring the append path.
func benchReplayMaterialize(uint64) (benchResult, error) {
	const span = 200_000
	w, ok := workload.Get("mcf")
	if !ok {
		return benchResult{}, fmt.Errorf("workload mcf not registered")
	}
	img := w.Build()
	res := testing.Benchmark(func(b *testing.B) {
		m := arch.New(img)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := span
			if rem := b.N - done; rem < n {
				n = rem
			}
			s, err := replay.MaterializeFrom(m, uint64(n))
			if err != nil {
				b.Fatal(err)
			}
			done += s.Len()
			benchSink += uint64(s.Len())
			if m.Halted { // program ended: restart off the clock
				b.StopTimer()
				m = arch.New(img)
				b.StartTimer()
			}
		}
	})
	row := fromResult("replay-materialize-inst", res)
	if row.NsPerOp > 0 {
		row.MIPS = 1e3 / row.NsPerOp // one op = one instruction
	}
	return row, nil
}

func benchReplayConsume(insts uint64) (benchResult, error) {
	if insts < 100_000 {
		insts = 100_000
	}
	w, ok := workload.Get("swim")
	if !ok {
		return benchResult{}, fmt.Errorf("workload swim not registered")
	}
	img := w.Build()
	// One functional pass off the clock; every rebuild below re-reads the
	// same stream, exactly as sweep grid points share one materialization.
	s, err := replay.Materialize(img, insts)
	if err != nil {
		return benchResult{}, err
	}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, insts)
	return benchSteadyStepWith("replay-consume-cycle", func() (*pipeline.Pipeline, error) {
		return pipeline.NewWithTrace(cfg, img, s.All())
	})
}

// ---------------------------------------------------------------------------
// Whole-simulator entries: steady-state cycle cost and the Figure 5 macro
// run, both reporting simulated MIPS.

func steadyPipeline(insts uint64, mutate func(*pipeline.Config)) (*pipeline.Pipeline, error) {
	w, ok := workload.Get("swim")
	if !ok {
		return nil, fmt.Errorf("workload swim not registered")
	}
	img := w.Build()
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, insts)
	if mutate != nil {
		mutate(&cfg)
	}
	tr, err := arch.RunTrace(img, insts)
	if err != nil {
		return nil, err
	}
	return pipeline.NewWithTrace(cfg, img, tr)
}

// warmPipeline steps past cold caches, entry-pool fill, and the store-touched
// sparse-memory pages, so a subsequent timed region measures pure steady
// state. The warmup is what lets the baseline gate assert exact zero bytes
// per op: the seed report's stray 1 B/op was cold stepping after an on-clock
// rebind (pool refill plus first-touch page faults) smeared across b.N.
func warmPipeline(p *pipeline.Pipeline) error {
	for i := 0; i < 20_000; i++ {
		if !p.Step() {
			return fmt.Errorf("pipeline finished during warmup; raise -insts")
		}
	}
	return nil
}

// benchSteadyStep times Pipeline.Step on a warm pipeline under the baseline
// MDT+SFC configuration (optionally mutated). When a pipeline exhausts its
// instruction budget mid-measurement, the rebuild AND its re-warm both stay
// off the clock; with -insts >= 100k that happens at most every ~70k ops.
func benchSteadyStep(name string, insts uint64, mutate func(*pipeline.Config)) (benchResult, error) {
	if insts < 100_000 {
		insts = 100_000
	}
	return benchSteadyStepWith(name, func() (*pipeline.Pipeline, error) {
		return steadyPipeline(insts, mutate)
	})
}

// benchSteadyStepWith is the shared timing loop behind the steady-state
// entries: build, warm off the clock, time Step, rebuild+re-warm off the
// clock whenever a pipeline exhausts its budget mid-measurement.
func benchSteadyStepWith(name string, build func() (*pipeline.Pipeline, error)) (benchResult, error) {
	p, err := build()
	if err != nil {
		return benchResult{}, err
	}
	if err := warmPipeline(p); err != nil {
		return benchResult{}, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !p.Step() {
				b.StopTimer()
				np, err := build()
				if err != nil {
					b.Fatal(err)
				}
				if err := warmPipeline(np); err != nil {
					b.Fatal(err)
				}
				p = np
				b.StartTimer()
			}
		}
	})
	return fromResult(name, res), nil
}

func benchPipelineCycle(insts uint64) (benchResult, error) {
	r, err := benchSteadyStep("pipeline-steady-cycle", insts, nil)
	if err != nil {
		return benchResult{}, err
	}
	// Dedicated timed window for simulated MIPS, independent of
	// testing.Benchmark's iteration accounting: step a warm pipeline for a
	// fixed cycle count and divide retired instructions by wall time.
	if insts < 100_000 {
		insts = 100_000
	}
	mp, err := steadyPipeline(insts, nil)
	if err != nil {
		return benchResult{}, err
	}
	for i := 0; i < 20_000; i++ {
		mp.Step()
	}
	retired0 := mp.Stats().Retired
	start := time.Now()
	for i := 0; i < 50_000 && mp.Step(); i++ {
	}
	if us := float64(time.Since(start).Microseconds()); us > 0 {
		r.MIPS = float64(mp.Stats().Retired-retired0) / us
	}
	return r, nil
}

// benchPipelineFrontend is pipeline-steady-cycle with the full frontend
// stack on (TAGE, stride prefetch, pre-probe): the delta against the plain
// row is the whole-pipeline cost of frontend realism per cycle. Gated like
// the plain row — the frontend must stay zero-alloc in steady state.
func benchPipelineFrontend(insts uint64) (benchResult, error) {
	return benchSteadyStep("pipeline-steady-cycle-frontend", insts, func(cfg *pipeline.Config) {
		cfg.BPred = bpred.TageConfig()
		cfg.Prefetch = prefetch.StrideConfig()
		cfg.Preprobe = core.AddrPredDefaults()
	})
}

// Scheduler comparison: the same steady-state swim run under the wakeup
// scheduler (ready bitset + consumer lists, the shipped default) and under
// the retained linear ROB scan (Config.LinearScanScheduler, the oracle the
// differential test pins the wakeup scheduler against). The two issue
// bit-identical instruction sequences, so the ns/op gap is pure scheduling
// overhead: O(ready) bitset walk versus O(window) re-scan at a 128-entry ROB.

func benchIssueWakeup(insts uint64) (benchResult, error) {
	return benchSteadyStep("issue-wakeup", insts, nil)
}

func benchIssueScan(insts uint64) (benchResult, error) {
	return benchSteadyStep("issue-scan", insts, func(cfg *pipeline.Config) {
		cfg.LinearScanScheduler = true
	})
}

// ---------------------------------------------------------------------------
// Idle-cycle elision (DESIGN.md §13): the stall-heavy pointer chase keeps at
// most one serial load miss in flight, leaving the machine fully quiescent
// for the ~hundred-cycle L2 round trip between dispatches.
// pipeline-stall-cycle runs the shipped eliding loop; the -noelide row pins
// the stepped oracle (Config.NoElide) that the differential tests compare
// against, kept informational like issue-scan so the replaced behaviour
// stays measurable without being gated. One op = one full run of the chase;
// ns/op is then divided by the run's simulated cycle count so both rows read
// as nanoseconds per simulated cycle, comparable to pipeline-steady-cycle.
// Allocs/op and B/op stay raw per-run: a full eliding run on a warm pipeline
// must not allocate at all, and the baseline's zero-byte guarantee gates
// exactly that (the Reset between runs is off the clock).

func benchStallRun(name string, insts uint64, noElide bool) (benchResult, error) {
	if insts < 20_000 {
		insts = 20_000
	} else if insts > 50_000 {
		insts = 50_000 // the stepped oracle pays ~40 simulated cycles per inst
	}
	w, ok := workload.Get("ptrchase")
	if !ok {
		return benchResult{}, fmt.Errorf("workload ptrchase not registered")
	}
	img := w.Build()
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, insts)
	cfg.NoElide = noElide
	tr, err := arch.RunTrace(img, insts)
	if err != nil {
		return benchResult{}, err
	}
	p, err := pipeline.NewWithTrace(cfg, img, tr)
	if err != nil {
		return benchResult{}, err
	}
	// One throwaway run warms the entry pool, wheel buckets, and the image's
	// store-touched pages, so the timed runs measure pure steady state.
	if _, err := p.Run(); err != nil {
		return benchResult{}, err
	}
	var cycles, retired, elided uint64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := p.Reset(cfg, img, tr); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			st, err := p.Run()
			if err != nil {
				b.Fatal(err)
			}
			cycles, retired, elided = st.Cycles, st.Retired, st.CyclesElided
		}
	})
	if noElide && elided != 0 {
		return benchResult{}, fmt.Errorf("%s: NoElide oracle elided %d cycles", name, elided)
	}
	if !noElide && elided == 0 {
		return benchResult{}, fmt.Errorf("%s: eliding run elided nothing", name)
	}
	row := fromResult(name, res)
	if row.NsPerOp > 0 {
		row.MIPS = float64(retired) * 1e3 / row.NsPerOp
	}
	if cycles > 0 {
		row.NsPerOp /= float64(cycles)
	}
	return row, nil
}

func benchStallElide(insts uint64) (benchResult, error) {
	return benchStallRun("pipeline-stall-cycle", insts, false)
}

func benchStallNoElide(insts uint64) (benchResult, error) {
	return benchStallRun("pipeline-stall-cycle-noelide", insts, true)
}

func benchFigure5(insts uint64) (benchResult, error) {
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := harness.NewRunner(insts)
			if _, err := harness.Figure5(r); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return benchResult{}, benchErr
	}
	// One extra timed run for the simulated-MIPS figure: retired
	// instructions across every (workload, config) cell per wall-clock
	// microsecond.
	r := harness.NewRunner(insts)
	start := time.Now()
	if _, err := harness.Figure5(r); err != nil {
		return benchResult{}, err
	}
	elapsed := time.Since(start)
	row := fromResult("figure5-macro", res)
	if us := float64(elapsed.Microseconds()); us > 0 {
		row.MIPS = float64(r.TotalRetired()) / us
	}
	return row, nil
}

var benchSuite = []benchEntry{
	{calibrationName, benchCalibration},
	{"event-wheel-cycle", benchEventWheel},
	{"entry-pooled-cycle", benchEntryPooled},
	{"mem-read-word", benchMemReadWord},
	{"mem-tlb", benchMemTLB},
	{"sfc-store-load-retire", benchSFC},
	{"sfc-probe", benchSFCProbe},
	{"mdt-probe-pair", benchMDT},
	{"storefifo-push-pop", benchStoreFIFO},
	{"tage-lookup", benchTageLookup},
	{"prefetch-train", benchPrefetchTrain},
	{"preprobe-probe", benchPreprobeProbe},
	{"fastforward-inst", benchFastForward},
	{"snapshot-roundtrip", benchSnapshotRoundtrip},
	{"sample-run-serial", benchSampleRunSerial},
	{"sample-run-parallel", benchSampleRunParallel},
	{"replay-materialize-inst", benchReplayMaterialize},
	{"replay-consume-cycle", benchReplayConsume},
	{"issue-wakeup", benchIssueWakeup},
	{"issue-scan", benchIssueScan},
	{"pipeline-steady-cycle", benchPipelineCycle},
	{"pipeline-steady-cycle-frontend", benchPipelineFrontend},
	{"pipeline-stall-cycle", benchStallElide},
	{"pipeline-stall-cycle-noelide", benchStallNoElide},
	{"figure5-macro", benchFigure5},
}

// informational entries are the oracle modes the differential tests compare
// against, kept measurable so the win stays visible. They are not the
// shipped fast paths, so the comparator does not gate their timings.
var informational = map[string]bool{
	"issue-scan":                   true,
	"pipeline-stall-cycle-noelide": true,
}

// machineDependent entries' timings and allocation counts vary with the
// host's core count: the interval pool spawns up to GOMAXPROCS-1 extra
// workers, so both ns/op and allocs/op legitimately differ between a 1-core
// CI runner and a developer's multicore box. The comparator reports these
// rows without gating any of their columns. The contract that IS gated —
// parallel results bit-identical to sample-run-serial — lives in `go test`
// (internal/sample's parallel tests) and scripts/sample_smoke.sh, where it
// holds on any machine.
var machineDependent = map[string]bool{
	"sample-run-parallel": true,
}

// runBenchSuite executes the selected entries (names, or everything for
// "all") and returns their rows in suite order. Each entry is measured
// repeat times and the fastest run is kept: scheduler preemption and cache
// pollution on shared machines only ever slow a run down, so best-of-N is a
// far more stable estimator than a single sample — for the committed
// baseline and for the fresh side of a -baseline comparison alike.
func runBenchSuite(names []string, insts uint64, repeat int, verbose bool) ([]benchResult, error) {
	if repeat < 1 {
		repeat = 1
	}
	want := make(map[string]bool, len(names))
	all := len(names) == 0
	for _, n := range names {
		if n == "all" {
			all = true
			continue
		}
		want[n] = true
	}
	var out []benchResult
	for _, e := range benchSuite {
		if !all && !want[e.name] {
			continue
		}
		delete(want, e.name)
		start := time.Now()
		var best benchResult
		for i := 0; i < repeat; i++ {
			// Pay down the previous entry's garbage before timing: GC debt
			// (figure5 alone leaves >100MB) otherwise lands on whichever
			// allocating benchmark happens to run next.
			runtime.GC()
			row, err := e.run(insts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.name, err)
			}
			if i == 0 || row.NsPerOp < best.NsPerOp {
				best = row
			}
		}
		out = append(out, best)
		if verbose {
			fmt.Fprintf(os.Stderr, "[%s took %v, best of %d]\n", e.name, time.Since(start).Round(time.Millisecond), repeat)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown benchmark(s) %v", unknown)
	}
	return out, nil
}

func printBenchTable(results []benchResult) {
	fmt.Printf("%-24s %14s %14s %12s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op", "MIPS")
	for _, r := range results {
		mips := "-"
		if r.MIPS > 0 {
			mips = fmt.Sprintf("%.1f", r.MIPS)
		}
		fmt.Printf("%-24s %14.1f %14.1f %12.2f %10s\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, mips)
	}
}

func writeBenchJSON(path string, results []benchResult) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// suspiciousImprovement is the fractional ns/op improvement beyond which a
// gated entry is flagged for re-baselining: a real optimization that large
// lands with a regenerated baseline in the same change, so a >40% win
// showing up against an old baseline usually means the machine changed and
// the gate has silently inflated.
const suspiciousImprovement = 0.40

// compareBaseline diffs results against a committed baseline file and
// returns the regressions: entries whose ns/op grew by more than tolerance
// (fractional, e.g. 0.10 = 10%), or whose allocs/op grew beyond a
// half-alloc plus 0.1% of the baseline count. The flat half-alloc keeps
// the zero-alloc guarantee exact (one new allocation on a zero-alloc entry
// always trips); the proportional term absorbs the ±1 flicker that macro
// entries with tens of thousands of allocs show when a once-per-run
// allocation amortizes differently across b.N.
//
// When both sides carry the cpu-calibration entry, every baseline ns/op is
// scaled by the calibration ratio first, so a uniformly slower (or faster)
// machine does not read as a wall of regressions (or mask real ones).
//
// The second return lists gated entries whose ns/op improved by more than
// suspiciousImprovement — advisory, never a failure (see the README's
// benchmarking section for the re-baseline workflow).
func compareBaseline(path string, tolerance float64, results []benchResult) (regressions, suspicious []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var base []benchResult
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	baseline := make(map[string]benchResult, len(base))
	for _, b := range base {
		baseline[b.Name] = b
	}
	scale := 1.0
	if bc, ok := baseline[calibrationName]; ok && bc.NsPerOp > 0 {
		for _, r := range results {
			if r.Name == calibrationName && r.NsPerOp > 0 {
				scale = r.NsPerOp / bc.NsPerOp
			}
		}
	}
	for _, r := range results {
		if r.Name == calibrationName {
			continue // the yardstick itself
		}
		if machineDependent[r.Name] {
			continue // core-count-dependent: reported, never gated
		}
		b, ok := baseline[r.Name]
		if !ok {
			// A measured entry the baseline has never seen is a gate with no
			// teeth: every later run would "pass" it vacuously. Fail loudly so
			// the baseline file gets regenerated alongside the new benchmark.
			regressions = append(regressions, fmt.Sprintf(
				"%s: missing from baseline %s (regenerate it to cover new benchmarks)", r.Name, path))
			continue
		}
		if want := b.NsPerOp * scale; !informational[r.Name] && b.NsPerOp > 0 {
			if r.NsPerOp > want*(1+tolerance) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: ns/op %.1f -> %.1f (+%.1f%% after %.2fx machine calibration, tolerance %.0f%%)",
					r.Name, want, r.NsPerOp, 100*(r.NsPerOp/want-1), scale, 100*tolerance))
			} else if r.NsPerOp < want*(1-suspiciousImprovement) {
				suspicious = append(suspicious, fmt.Sprintf(
					"%s: ns/op %.1f -> %.1f (-%.1f%% after %.2fx machine calibration) — re-baseline",
					r.Name, want, r.NsPerOp, 100*(1-r.NsPerOp/want), scale))
			}
		}
		if r.AllocsPerOp > b.AllocsPerOp+0.5+0.001*b.AllocsPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %.2f -> %.2f",
				r.Name, b.AllocsPerOp, r.AllocsPerOp))
		}
		// A zero-byte guarantee is exact: any bytes at all on an entry the
		// baseline records as allocation-free is a leak back onto the cycle
		// path, however cheap this run happened to measure it.
		if b.BytesPerOp == 0 && r.BytesPerOp > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: bytes/op 0 -> %.2f (zero-byte guarantee broken)",
				r.Name, r.BytesPerOp))
		}
	}
	return regressions, suspicious, nil
}

// Command sfcsim runs one workload on one processor configuration and
// prints detailed statistics: IPC, violation counts by kind, replay counts
// by cause, forwarding and branch behaviour, and structure-level counters.
//
// Usage:
//
//	sfcsim [-config baseline|aggressive] [-mem mdtsfc|lsq|value-replay|mvsfc]
//	       [-pred enf|not-enf|total|off] [-bpred gshare|tage] [-prefetch none|stride]
//	       [-preprobe] [-lq N -sq N] [-insts N] [-json] [-list] <workload>
//	sfcsim -fastforward N [-checkpoint-dir DIR] [flags] <workload>
//	sfcsim -sample-measure M [-fastforward W] [-sample-warm U] [-sample-intervals K]
//	       [-checkpoint-dir DIR] [flags] <workload>
//
// The configuration flags are the fields of a sfcserve /v1/run request and
// take its defaults: an empty -pred picks the paper's mode for the
// (config, mem) pair, and -lq/-sq size the lsq and value-replay queues only
// when both are set. -json emits the run as one service.Result JSON object —
// the schema /v1/run returns, with the same config name — instead of the
// text report.
//
// -fastforward skips N instructions on the functional model before the
// detailed run; -sample-measure switches to SMARTS-style interval sampling
// (per interval: fast-forward W, warm U in detail with stats discarded,
// measure M). -checkpoint-dir backs the fast-forward with an on-disk
// checkpoint store so repeated invocations restore instead of re-executing.
//
// The detailed pipeline consumes a compact columnar replay stream; -replay-dir
// persists streams on disk so repeated invocations skip the functional pass
// (see DESIGN.md §10).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"sfcmdt/internal/metrics"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/service"
	"sfcmdt/internal/snapshot"
	"sfcmdt/sim"
)

// defaultInsts is -insts's default, and the budget -insts 0 asks for.
const defaultInsts = 200_000

func main() {
	cfgName := flag.String("config", "aggressive", "processor: baseline or aggressive")
	memSys := flag.String("mem", "mdtsfc", "memory subsystem: mdtsfc, lsq, value-replay or mvsfc")
	pred := flag.String("pred", "", "predictor mode: enf, not-enf, total, off (default: enf for baseline mdtsfc, total for aggressive mdtsfc, off for value-replay, not-enf otherwise)")
	lq := flag.Int("lq", 0, "load-queue entries (lsq and value-replay, with -sq; default per config)")
	sq := flag.Int("sq", 0, "store-queue entries (lsq and value-replay, with -lq; default per config)")
	bpredName := flag.String("bpred", "gshare", "branch predictor: gshare or tage")
	prefetchName := flag.String("prefetch", "none", "L1D hardware prefetcher: none or stride")
	preprobe := flag.Bool("preprobe", false, "pre-probe the SFC/MDT way memos with predicted load addresses at dispatch (timing-only)")
	insts := flag.Uint64("insts", defaultInsts, "correct-path instructions to simulate")
	ff := flag.Uint64("fastforward", 0, "functionally fast-forward N instructions per interval before detailed simulation")
	sWarm := flag.Uint64("sample-warm", 0, "detailed-warm instructions per interval, statistics discarded")
	sMeasure := flag.Uint64("sample-measure", 0, "measured instructions per interval (enables interval sampling; default: -insts in one interval)")
	sIntervals := flag.Int("sample-intervals", 1, "number of sampling intervals")
	sParallel := flag.Int("sample-parallel", 0, "interval-level workers for sampled runs (0: all cores, 1: serial; results are bit-identical either way)")
	ckptDir := flag.String("checkpoint-dir", "", "on-disk checkpoint store backing the fast-forward (default: none)")
	replayDir := flag.String("replay-dir", "", "on-disk replay-stream store: the functional reference stream is loaded from (or saved to) DIR instead of re-traced per invocation")
	jsonOut := flag.Bool("json", false, "emit the run as service.Result JSON (the sfcserve schema)")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NAME\tCLASS\tPATHOLOGY")
		for _, w := range sim.Workloads() {
			fmt.Fprintf(tw, "%s\t%s\t%s\n", w.Name, w.Class, w.Pathology)
		}
		tw.Flush()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sfcsim [flags] <workload>; -list shows workloads")
		os.Exit(2)
	}
	w, ok := sim.Workload(flag.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "sfcsim: unknown workload %q\n", flag.Arg(0))
		os.Exit(2)
	}

	// The flags name a /v1/run request; normalizing it (uncapped) resolves
	// the defaults and the configuration exactly as sfcserve does.
	rq := service.RunRequest{
		Workload: w.Name, Config: *cfgName, Mem: *memSys, Pred: *pred, LQ: *lq, SQ: *sq,
		BPred: *bpredName, Prefetch: *prefetchName, Preprobe: *preprobe, Insts: *insts,
	}
	if *ff > 0 || *sMeasure > 0 {
		measure := *sMeasure
		if measure == 0 {
			measure = *insts
		}
		rq.Sampling = &service.SamplingSpec{FF: *ff, Warm: *sWarm, Measure: measure, Intervals: *sIntervals}
		rq.Insts = 0
	}
	if err := rq.Normalize(defaultInsts, math.MaxUint64, math.MaxUint64); err != nil {
		fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
		os.Exit(2)
	}
	cfg := rq.PipelineConfig()

	if sp := rq.Sampling; sp != nil {
		plan := sample.Plan{FastForward: sp.FF, Warm: sp.Warm, Measure: sp.Measure, Intervals: sp.Intervals}
		runSampled(cfg, w, plan, *ckptDir, *sParallel, *jsonOut)
		return
	}

	img := w.Build()
	var store replay.Store
	if *replayDir != "" {
		st, err := replay.NewDiskStore(*replayDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfcsim: replay-dir: %v\n", err)
			os.Exit(1)
		}
		store = st
	}
	var p *pipeline.Pipeline
	v, err := replay.NewCache(store).Source(img, "", rq.Insts, nil)
	if err == nil {
		p, err = pipeline.NewWithTrace(cfg, img, v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
		os.Exit(1)
	}
	s, err := p.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		res := service.NewResult(w.Name, string(w.Class), cfg.Name, rq.Insts, s)
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload   %s (%s)\n", w.Name, w.Class)
	fmt.Printf("pathology  %s\n", w.Pathology)
	fmt.Printf("config     %s\n\n", cfg.Name)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	writeStats(tw, s)
	if mdt, sfc := p.MDTSFC(); mdt != nil {
		fmt.Fprintf(tw, "MDT\t%d accesses, %d conflicts, %d reclaimed, %d occupied\n",
			mdt.Accesses, mdt.Conflicts, mdt.Reclaimed, mdt.Occupied)
		fmt.Fprintf(tw, "SFC\t%d writes, %d conflicts, %d corrupt-marks, %d reclaimed\n",
			sfc.StoreWrites, sfc.StoreConflicts, sfc.Corruptions, sfc.Reclaimed)
	}
	if lsq := p.LSQ(); lsq != nil {
		fmt.Fprintf(tw, "LSQ\t%d load searches, %d store searches, %d silent-store squelches\n",
			lsq.LoadSearches, lsq.StoreSearches, lsq.SilentSquelch)
	}
	tw.Flush()
}

// writeStats renders the per-run counter table shared by the full and
// sampled reports.
func writeStats(tw *tabwriter.Writer, s *metrics.Stats) {
	if s.CyclesElided > 0 {
		fmt.Fprintf(tw, "cycles\t%d (%d elided, %.1f%%)\n", s.Cycles, s.CyclesElided,
			100*float64(s.CyclesElided)/float64(s.Cycles))
	} else {
		fmt.Fprintf(tw, "cycles\t%d\n", s.Cycles)
	}
	fmt.Fprintf(tw, "retired\t%d (loads %d, stores %d)\n", s.Retired, s.RetiredLoads, s.RetiredStores)
	fmt.Fprintf(tw, "IPC\t%.3f\n", s.IPC())
	fmt.Fprintf(tw, "avg ROB occupancy\t%.1f (max %d)\n", s.AvgOccupancy(), s.MaxOccupancy)
	fmt.Fprintf(tw, "branches\t%d cond, %.2f%% mispredicted, %d oracle-corrected\n",
		s.CondBranches, 100*s.MispredictRate(), s.OracleCorrected)
	fmt.Fprintf(tw, "flushes\t%d mispredict, %d violation\n", s.MispredictFlushes, s.ViolationFlushes)
	fmt.Fprintf(tw, "violations\t%d true, %d anti, %d output (%.3f%% of mem ops)\n",
		s.TrueViolations, s.AntiViolations, s.OutputViolations, 100*s.ViolationRate())
	fmt.Fprintf(tw, "replays\t%d SFC-conflict, %d MDT-conflict, %d corruption, %d partial\n",
		s.ReplaySFCConflict, s.ReplayMDTConflict, s.ReplayCorrupt, s.ReplayPartial)
	fmt.Fprintf(tw, "forwarding\tSFC %d full + %d merged; LSQ %d full + %d merged\n",
		s.SFCForwards, s.SFCPartialMerges, s.LSQForwards, s.LSQPartialMerges)
	fmt.Fprintf(tw, "head bypasses\t%d loads, %d stores\n", s.HeadBypassLoads, s.HeadBypassStores)
	fmt.Fprintf(tw, "caches\tL1I %d/%d, L1D %d/%d, L2 %d/%d (hits/misses)\n",
		s.L1IHits, s.L1IMisses, s.L1DHits, s.L1DMisses, s.L2Hits, s.L2Misses)
	if s.BPredTaggedProvider > 0 || s.BPredAllocs > 0 {
		fmt.Fprintf(tw, "tage\t%d lookups, %d provider hits, %d alt-used, %d allocs\n",
			s.BPredLookups, s.BPredTaggedProvider, s.BPredAltUsed, s.BPredAllocs)
	}
	if s.PrefetchIssued > 0 || s.PrefetchRedundant > 0 {
		fmt.Fprintf(tw, "prefetch\t%d issued, %d useful (%.1f%% accuracy), %d late, %d redundant; L1D demand-miss %.2f%%\n",
			s.PrefetchIssued, s.PrefetchUseful, 100*s.PrefetchAccuracy(),
			s.PrefetchLate, s.PrefetchRedundant, 100*s.L1DDemandMissRate())
	}
	if s.PreprobeLookups > 0 {
		fmt.Fprintf(tw, "pre-probe\t%d lookups, %d hits / %d misses (%.1f%% hit rate), %d warms\n",
			s.PreprobeLookups, s.PreprobeHits, s.PreprobeMisses,
			100*s.PreprobeHitRate(), s.PreprobeWarms)
	}
}

// runSampled executes the fast-forward / interval-sampling path and prints
// either the sampled text report or the service.Result JSON (with its
// sampling block).
func runSampled(cfg sim.Config, w sim.WorkloadSpec, plan sample.Plan, ckptDir string, parallel int, jsonOut bool) {
	var store snapshot.Store
	if ckptDir != "" {
		st, err := snapshot.NewDiskStore(ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfcsim: checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
		store = st
	}
	ivs, err := sample.Prepare(w.Build(), plan, store, "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
		os.Exit(1)
	}
	if store != nil && !jsonOut {
		if ivs.Restored == len(ivs.Ivs) && ivs.FFInsts == 0 {
			fmt.Printf("checkpoint store: hit (%d/%d intervals restored)\n", ivs.Restored, len(ivs.Ivs))
		} else {
			fmt.Printf("checkpoint store: miss (fast-forwarded %d insts, restored %d/%d intervals)\n",
				ivs.FFInsts, ivs.Restored, len(ivs.Ivs))
		}
	}
	sres, err := ivs.RunParallel(context.Background(), cfg, parallel, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
		os.Exit(1)
	}

	if jsonOut {
		res := service.NewResult(w.Name, string(w.Class), cfg.Name, plan.Span(), sres.Measured)
		res.Sampling = service.NewSamplingResult(sres)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "sfcsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload   %s (%s)\n", w.Name, w.Class)
	fmt.Printf("pathology  %s\n", w.Pathology)
	fmt.Printf("config     %s\n", cfg.Name)
	fmt.Printf("sampling   %s (span %d insts)\n\n", plan, plan.Span())
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "sampled IPC\t%.3f (CV %.3f over %d intervals)\n", sres.IPC, sres.CV, sres.Intervals)
	for i, ipc := range sres.IntervalIPC {
		fmt.Fprintf(tw, "  interval %d\t%.3f (at +%d insts)\n", i, ipc, ivs.Ivs[i].Offset)
	}
	fmt.Fprintf(tw, "fast-forwarded\t%d insts (functional)\n", sres.FFInsts)
	fmt.Fprintf(tw, "warmed\t%d insts (detailed, stats discarded)\n", sres.WarmInsts)
	tw.Flush()
	fmt.Printf("\nmeasured intervals:\n")
	tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	writeStats(tw, sres.Measured)
	tw.Flush()
}

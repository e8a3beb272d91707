// Package sim is the public API of the SFC/MDT simulator: it exposes the
// processor configurations from the paper's Figure 4, the synthetic SPEC
// 2000-class workloads, program construction (builder and assembler), the
// cycle-level pipeline, and the experiment harness, without requiring
// callers to reach into internal packages.
//
// Quick start:
//
//	w, _ := sim.Workload("gzip")
//	cfg := sim.Baseline(sim.MDTSFCEnf, 100_000)
//	stats, err := sim.Run(cfg, w.Build())
//	fmt.Printf("IPC %.3f\n", stats.IPC())
package sim

import (
	"context"

	"sfcmdt/internal/asm"
	"sfcmdt/internal/core"
	"sfcmdt/internal/harness"
	"sfcmdt/internal/metrics"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// Re-exported core types. See the respective internal packages for full
// documentation.
type (
	// Config is a full processor configuration (widths, window, memory
	// subsystem, predictors, frontend options, instruction budget); the
	// latencies are Figure 4's fixed ones.
	Config = pipeline.Config
	// Stats is the statistics record of one run.
	Stats = metrics.Stats
	// Image is an executable program.
	Image = prog.Image
	// Builder constructs programs instruction by instruction.
	Builder = prog.Builder
	// WorkloadSpec is one synthetic benchmark.
	WorkloadSpec = workload.Workload
	// Variant names a memory-subsystem + predictor combination.
	Variant = harness.Variant
	// Frontend names the frontend-realism options (branch predictor,
	// L1D prefetcher, SFC/MDT pre-probe); its zero value is the golden
	// default and Apply is then a no-op.
	Frontend = harness.Frontend
	// Table is a formatted experiment result.
	Table = harness.Table
	// Runner executes workloads across configurations in parallel.
	Runner = harness.Runner
	// RecoveryOptions selects the paper's §2.4 recovery optimizations.
	RecoveryOptions = pipeline.RecoveryOptions
	// MDTConfig, SFCConfig, LSQConfig and PredictorConfig size the
	// memory-subsystem structures.
	MDTConfig       = core.MDTConfig
	SFCConfig       = core.SFCConfig
	MVSFCConfig     = core.MVSFCConfig
	LSQConfig       = core.LSQConfig
	PredictorConfig = core.PredictorConfig
)

// Memory-subsystem kinds.
const (
	MemLSQ    = pipeline.MemLSQ
	MemMDTSFC = pipeline.MemMDTSFC
)

// Predictor modes (§2.1, §3).
const (
	PredOff        = core.PredOff
	PredTrueOnly   = core.PredTrueOnly // NOT-ENF
	PredPairwise   = core.PredPairwise // ENF (baseline)
	PredTotalOrder = core.PredTotalOrder
)

// The paper's evaluated variants.
var (
	LSQ48x32          = harness.LSQ48x32
	LSQ120x80         = harness.LSQ120x80
	LSQ256x256        = harness.LSQ256x256
	MDTSFCEnf         = harness.MDTSFCEnf
	MDTSFCNot         = harness.MDTSFCNot
	MDTSFCTotal       = harness.MDTSFCTotal
	ValueReplay120x80 = harness.ValueReplay120x80
	MVSFCVariant      = harness.MVSFC
)

// Baseline returns the paper's Figure 4 baseline superscalar (4-wide,
// 128-entry window) hosting the given variant.
func Baseline(v Variant, maxInsts uint64) Config { return harness.BaselineConfig(v, maxInsts) }

// Aggressive returns the Figure 4 aggressive superscalar (8-wide,
// 1024-entry window).
func Aggressive(v Variant, maxInsts uint64) Config { return harness.AggressiveConfig(v, maxInsts) }

// Workloads returns every synthetic benchmark in figure order.
func Workloads() []WorkloadSpec { return workload.All() }

// Workload returns the named synthetic benchmark.
func Workload(name string) (WorkloadSpec, bool) { return workload.Get(name) }

// NewBuilder starts a new program.
func NewBuilder(name string) *Builder { return prog.NewBuilder(name) }

// Assemble builds a program image from assembly text.
func Assemble(name, src string) (*Image, error) { return asm.Assemble(name, src) }

// Disassemble renders an image's code segment as text.
func Disassemble(img *Image) string { return asm.Disassemble(img) }

// Run simulates the program on the configured processor and returns the run
// statistics. The functional golden model first materializes the program's
// reference stream (at most cfg.MaxInsts instructions, 20 B each); every
// retired instruction is validated against it.
func Run(cfg Config, img *Image) (*Stats, error) {
	p, err := pipeline.New(cfg, img)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// NewRunner builds an experiment runner with the given per-run instruction
// budget.
func NewRunner(maxInsts uint64) *Runner { return harness.NewRunner(maxInsts) }

// Checkpointing and sampled simulation (DESIGN.md §9).
type (
	// SamplingPlan is a SMARTS-style systematic sampling plan: per
	// interval, fast-forward functionally, warm the pipeline in detail
	// with statistics discarded, then measure; repeated Intervals times.
	SamplingPlan = sample.Plan
	// SampledResult aggregates the measured intervals of a sampled run.
	SampledResult = sample.Result
	// SnapshotStore stores architectural checkpoints, content-addressed
	// and keyed by (workload, args, instruction offset).
	SnapshotStore = snapshot.Store
)

// Checkpoint stores: in-process and on-disk (persists across processes).
var (
	NewMemSnapshotStore  = snapshot.NewMemStore
	NewDiskSnapshotStore = snapshot.NewDiskStore
)

// SampledRun prepares the plan's intervals over the program (restoring
// interval start states from store when non-nil, checkpointing them on miss)
// and measures them under the configuration. The plan {Measure: N,
// Intervals: 1} reproduces Run(cfg, img) with MaxInsts=N bit-identically.
// Intervals are measured serially; SampledRunParallel fans them across
// cores with bit-identical results (DESIGN.md §11).
func SampledRun(cfg Config, img *Image, plan SamplingPlan, store SnapshotStore) (*SampledResult, error) {
	return SampledRunParallel(cfg, img, plan, store, 1)
}

// SampledRunParallel is SampledRun with the plan's intervals measured by up
// to parallel workers (0 means all cores). Results are bit-identical to the
// serial run at any worker count.
func SampledRunParallel(cfg Config, img *Image, plan SamplingPlan, store SnapshotStore, parallel int) (*SampledResult, error) {
	ivs, err := sample.Prepare(img, plan, store, "")
	if err != nil {
		return nil, err
	}
	return ivs.RunParallel(context.Background(), cfg, parallel, nil)
}

// The paper's experiments (see DESIGN.md's per-experiment index). Each
// returns a printable table.
var (
	Figure4               = harness.Figure4
	Figure5               = harness.Figure5
	Figure6               = harness.Figure6
	Violations            = harness.Violations
	EnfVsNotEnf           = harness.EnfVsNotEnf
	Conflicts             = harness.Conflicts
	Assoc16               = harness.Assoc16
	Corruption            = harness.Corruption
	Granularity           = harness.Granularity
	Recovery              = harness.Recovery
	TaggedVsUntagged      = harness.TaggedVsUntagged
	FlushEndpoints        = harness.FlushEndpoints
	WindowScaling         = harness.WindowScaling
	SearchWork            = harness.SearchWork
	ValueReplayComparison = harness.ValueReplayComparison
	MultiVersion          = harness.MultiVersion
	StructureScaling      = harness.StructureScaling
	SearchFilter          = harness.SearchFilter
)

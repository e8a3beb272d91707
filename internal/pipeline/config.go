// Package pipeline implements the cycle-level out-of-order superscalar
// processor model that hosts either memory subsystem: the paper's MDT + SFC
// + store FIFO, or the idealized LSQ baseline.
//
// The pipeline follows Figure 1: fetch → decode → memory dependence
// prediction → rename → schedule → memory unit / function units → retire.
// It models Alpha-style renaming with a register-alias-table checkpoint per
// instruction, wrong-path execution past predicted branches, a simple
// instruction re-execution mechanism ("the memory unit can drop an executing
// load or store and place the instruction back on the scheduler's ready
// list"), and in-order retirement validated against the architectural
// golden-model trace.
package pipeline

import (
	"fmt"

	"sfcmdt/internal/bpred"
	"sfcmdt/internal/core"
	"sfcmdt/internal/prefetch"
)

// MemSysKind selects the memory subsystem.
type MemSysKind uint8

const (
	// MemLSQ is the baseline idealized load/store queue.
	MemLSQ MemSysKind = iota
	// MemMDTSFC is the paper's MDT + SFC + store FIFO.
	MemMDTSFC
	// MemValueReplay is the §4 related-work baseline (Cain & Lipasti):
	// no load queue; every load re-executes against the cache at
	// retirement and a value mismatch triggers recovery.
	MemValueReplay
	// MemMVSFC is the §4 multiversion alternative: the MDT (true
	// violations only) paired with a multi-version SFC that renames
	// in-flight stores, making anti and output violations impossible.
	MemMVSFC
)

func (k MemSysKind) String() string {
	switch k {
	case MemLSQ:
		return "lsq"
	case MemMDTSFC:
		return "mdt+sfc"
	case MemValueReplay:
		return "value-replay"
	case MemMVSFC:
		return "mdt+mvsfc"
	}
	return "unknown"
}

// RecoveryOptions selects the §2.4 recovery-policy optimizations.
type RecoveryOptions struct {
	// SingleLoadOpt (§2.4.1): on a true violation with exactly one
	// completed unretired load buffered, flush from the load rather than
	// from the completing store.
	SingleLoadOpt bool
	// CorruptOnOutput (§2.4.2): on an output violation, poison the SFC
	// entry instead of flushing the pipeline.
	CorruptOnOutput bool
}

// Figure 4 gives every processor configuration the same timing, so these
// are constants rather than Config fields.
const (
	// MispredictPenalty is the redirect-to-fetch penalty in cycles.
	MispredictPenalty = 8

	frontEndDepth = 3 // cycles from fetch to earliest dispatch

	// Function-unit latencies: integer ALU (also branches and jumps),
	// multiply, divide, and address generation ahead of every memory
	// access.
	intLat, mulLat, divLat, aguLat = 1, 4, 12, 1

	bypassLat        = 1 // LSQ single-cycle store-to-load bypass
	sfcTagCheckExtra = 1 // +1 cycle store latency with the SFC (§3)
	mdtViolExtra     = 1 // +1 cycle violation penalty with the MDT (§3)
)

// Config describes one processor configuration: the values the paper's
// evaluation varies. The cache hierarchy is mem.DefaultHierarchy's.
type Config struct {
	Name string

	// Widths and capacities (Figure 4). Width is the fetch, dispatch,
	// issue and retire width, and so the number of identical, fully
	// pipelined function units; the fetch queue holds 4×Width.
	Width         int
	FetchBranches int // max conditional branches fetched per cycle
	ROBSize       int // reorder buffer = scheduling window = store FIFO entries
	MemPorts      int // memory-unit issues per cycle (0 = unlimited, the
	// paper's idealization); a finite value makes replay storms consume
	// real issue bandwidth

	// Memory subsystem.
	MemSys MemSysKind
	LSQ    core.LSQConfig
	MDT    core.MDTConfig
	SFC    core.SFCConfig
	MVSFC  core.MVSFCConfig

	// ReplayOnPartial drops loads that partially match the SFC instead of
	// merging the missing bytes from the cache (§2.3 allows either).
	ReplayOnPartial bool

	// SVWFilter enables the §4 search-filtering idea via a
	// store-vulnerability-window test: a load that is older than every
	// unexecuted store cannot be a true-violation victim, so it skips MDT
	// allocation entirely, cutting MDT pressure ("higher performance from
	// a much smaller MDT"). MDT/SFC subsystem only.
	SVWFilter bool

	Recovery RecoveryOptions

	// Predictors.
	Pred  core.PredictorConfig
	BPred bpred.Config

	// Frontend realism options, all off by default (golden figures):
	// Prefetch enables an L1D hardware prefetcher trained on demand misses
	// at execute; Preprobe enables the PCAX-style load-address predictor
	// that pre-probes the SFC/MDT way memos at dispatch.
	Prefetch prefetch.Config
	Preprobe core.AddrPredConfig

	// MaxInsts is the dynamic correct-path instruction budget.
	MaxInsts uint64

	// noElide disables idle-cycle elision: the run loop steps every cycle
	// individually instead of jumping over provably quiescent spans. It is
	// the oracle the package's elision differential tests set
	// (TestElideEquivalence). Stats are bit-identical either way, except
	// that Stats.CyclesElided stays zero here.
	noElide bool

	// linearScan selects the retired O(window) issue loop that re-scans the
	// whole ROB every cycle instead of the wakeup-driven ready bitset. The
	// two schedulers issue identical instruction sequences; the scan is the
	// oracle the package's scheduler differential tests set it for. Elision
	// is implicitly off under it, since the quiescence predicate does not
	// model its per-cycle re-polling.
	linearScan bool

	// maxCycles overrides the deadlock guard's cycle limit, which is
	// otherwise derived from MaxInsts when a pipeline is reset; the
	// package's watchdog elision test sets it.
	maxCycles uint64
}

// fetchQueueCap is the fetched-but-not-dispatched buffer's capacity.
func (c *Config) fetchQueueCap() int { return 4 * c.Width }

// Validate fills defaults and checks consistency.
func (c *Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 {
		return fmt.Errorf("pipeline: width %d / ROB %d must be positive", c.Width, c.ROBSize)
	}
	if c.FetchBranches <= 0 {
		c.FetchBranches = 1
	}
	switch c.MemSys {
	case MemLSQ, MemValueReplay:
		if err := c.LSQ.Validate(); err != nil {
			return err
		}
	case MemMDTSFC:
		if err := c.MDT.Validate(); err != nil {
			return err
		}
		if err := c.SFC.Validate(); err != nil {
			return err
		}
	case MemMVSFC:
		if err := c.MDT.Validate(); err != nil {
			return err
		}
		if err := c.MVSFC.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pipeline: unknown memory subsystem %d", c.MemSys)
	}
	if c.BPred.Bits == 0 && c.BPred.Kind == bpred.KindGshare {
		c.BPred = bpred.DefaultConfig()
	}
	c.BPred = c.BPred.WithDefaults()
	if c.BPred.Kind == bpred.KindTage {
		// The TAGE snapshot ring must cover every token the pipeline can
		// hold live: one per in-flight instruction (ROB + fetch queue),
		// plus slack for the checkpoint taken before the oldest.
		if need := c.ROBSize + c.fetchQueueCap() + 8; c.BPred.SpecDepth < need {
			p := 1
			for p < need {
				p *= 2
			}
			c.BPred.SpecDepth = p
		}
	}
	c.Prefetch = c.Prefetch.WithDefaults()
	c.Preprobe = c.Preprobe.WithDefaults()
	if c.MaxInsts == 0 {
		c.MaxInsts = 200_000
	}
	return nil
}

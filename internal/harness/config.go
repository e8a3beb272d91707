// Package harness drives the paper's experiments: it owns the Figure 4
// processor configurations, runs workloads across configurations (in
// parallel, with golden-trace caching), and formats each experiment as the
// table or figure the paper reports.
package harness

import (
	"fmt"

	"sfcmdt/internal/bpred"
	"sfcmdt/internal/core"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prefetch"
)

// Variant names a memory-subsystem + predictor combination from the
// evaluation section.
type Variant struct {
	Label string
	Kind  pipeline.MemSysKind
	// LSQ sizes (LSQ variants only).
	LQ, SQ int
	// Predictor mode.
	Pred core.PredictorMode
}

// The paper's evaluated variants.
var (
	// Baseline-processor variants (§3.1).
	LSQ48x32  = Variant{Label: "lsq-48x32", Kind: pipeline.MemLSQ, LQ: 48, SQ: 32, Pred: core.PredTrueOnly}
	MDTSFCEnf = Variant{Label: "mdtsfc-enf", Kind: pipeline.MemMDTSFC, Pred: core.PredPairwise}
	MDTSFCNot = Variant{Label: "mdtsfc-not-enf", Kind: pipeline.MemMDTSFC, Pred: core.PredTrueOnly}

	// Aggressive-processor variants (§3.2).
	LSQ120x80   = Variant{Label: "lsq-120x80", Kind: pipeline.MemLSQ, LQ: 120, SQ: 80, Pred: core.PredTrueOnly}
	LSQ256x256  = Variant{Label: "lsq-256x256", Kind: pipeline.MemLSQ, LQ: 256, SQ: 256, Pred: core.PredTrueOnly}
	MDTSFCTotal = Variant{Label: "mdtsfc-enf-total", Kind: pipeline.MemMDTSFC, Pred: core.PredTotalOrder}

	// Related-work baseline (§4): retirement-time, value-based
	// disambiguation with no load queue CAM. The violation's producer is
	// unknown by construction, so no dependence predictor can be trained
	// from it.
	ValueReplay120x80 = Variant{Label: "value-replay-120x80", Kind: pipeline.MemValueReplay, LQ: 120, SQ: 80, Pred: core.PredOff}

	// MVSFC is the §4 multiversion alternative: renaming removes anti and
	// output violations, so the predictor enforces only true dependences.
	MVSFC = Variant{Label: "mdt-mvsfc", Kind: pipeline.MemMVSFC, Pred: core.PredTrueOnly}
)

// BaselineConfig returns the paper's Figure 4 baseline superscalar: 4-wide,
// 128-entry window, 4K-set 2-way MDT, 128-set 2-way SFC.
func BaselineConfig(v Variant, maxInsts uint64) pipeline.Config {
	return pipeline.Config{
		Name:          "baseline/" + v.Label,
		Width:         4,
		FetchBranches: 1,
		ROBSize:       128,
		MemSys:        v.Kind,
		LSQ:           core.LSQConfig{LoadEntries: max(v.LQ, 1), StoreEntries: max(v.SQ, 1)},
		MDT:           core.MDTConfig{Sets: 4 << 10, Ways: 2, GranBytes: 8, Tagged: true},
		SFC:           core.SFCConfig{Sets: 128, Ways: 2},
		MVSFC:         core.MVSFCConfig{Sets: 128, Ways: 2, Versions: 4},
		Pred:          core.DefaultPredictorConfig(v.Pred),
		MaxInsts:      maxInsts,
	}
}

// AggressiveConfig returns the Figure 4 aggressive superscalar: 8-wide,
// 1024-entry window, 8K-set 2-way MDT, 512-set 2-way SFC.
func AggressiveConfig(v Variant, maxInsts uint64) pipeline.Config {
	cfg := BaselineConfig(v, maxInsts)
	cfg.Name = "aggressive/" + v.Label
	cfg.Width = 8
	cfg.FetchBranches = 8
	cfg.ROBSize = 1024
	cfg.MDT = core.MDTConfig{Sets: 8 << 10, Ways: 2, GranBytes: 8, Tagged: true}
	cfg.SFC = core.SFCConfig{Sets: 512, Ways: 2}
	cfg.MVSFC = core.MVSFCConfig{Sets: 512, Ways: 2, Versions: 4}
	return cfg
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Frontend names the DESIGN.md §14 frontend-realism options by the strings
// the CLIs and the service speak, the way Variant names memory subsystems.
// The zero value is the golden default: gshare, no prefetcher, no pre-probe
// — applying it leaves a configuration untouched, so every golden figure
// stays byte-identical.
type Frontend struct {
	BPred    string // "" or "gshare" (default), "tage"
	Prefetch string // "" or "none" (default), "stride"
	Preprobe bool   // PCAX-style SFC/MDT pre-probe at load dispatch
}

// Default reports whether f selects the golden default frontend.
func (f Frontend) Default() bool {
	return (f.BPred == "" || f.BPred == "gshare") &&
		(f.Prefetch == "" || f.Prefetch == "none") && !f.Preprobe
}

// Validate checks the option names without touching a configuration.
func (f Frontend) Validate() error {
	switch f.BPred {
	case "", "gshare", "tage":
	default:
		return fmt.Errorf("harness: unknown branch predictor %q (want gshare or tage)", f.BPred)
	}
	switch f.Prefetch {
	case "", "none", "stride":
	default:
		return fmt.Errorf("harness: unknown prefetcher %q (want none or stride)", f.Prefetch)
	}
	return nil
}

// Apply sets cfg's frontend fields and tags cfg.Name with each non-default
// option, so results and progress lines name the frontend they ran under.
func (f Frontend) Apply(cfg *pipeline.Config) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.BPred == "tage" {
		cfg.BPred = bpred.TageConfig()
		cfg.Name += "+tage"
	}
	if f.Prefetch == "stride" {
		cfg.Prefetch = prefetch.StrideConfig()
		cfg.Name += "+pf"
	}
	if f.Preprobe {
		cfg.Preprobe = core.AddrPredDefaults()
		cfg.Name += "+pp"
	}
	return nil
}

package service

import (
	"fmt"

	"sfcmdt/internal/core"
	"sfcmdt/internal/harness"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/workload"
)

// SamplingSpec is the optional sampling block of a run request: a SMARTS-style
// systematic plan that fast-forwards FF instructions functionally, warms the
// pipeline for Warm detailed instructions with statistics discarded, measures
// Measure instructions, and repeats Intervals times. The detailed budget
// (Warm+Measure)×Intervals is bounded by the server's max-insts cap; the
// functional budget FF×Intervals by its max-ff cap.
type SamplingSpec struct {
	FF        uint64 `json:"ff,omitempty"`
	Warm      uint64 `json:"warm,omitempty"`
	Measure   uint64 `json:"measure"`
	Intervals int    `json:"intervals"`
}

// plan converts the wire spec to the sampler's plan.
func (sp SamplingSpec) plan() sample.Plan {
	return sample.Plan{FastForward: sp.FF, Warm: sp.Warm, Measure: sp.Measure, Intervals: sp.Intervals}
}

// key is the sampling suffix of the request key.
func (sp SamplingSpec) key() string {
	return fmt.Sprintf("s:%d,%d,%d,%d", sp.FF, sp.Warm, sp.Measure, sp.Intervals)
}

// RunRequest names one simulation: a workload, a processor configuration,
// a memory subsystem + predictor variant, and an instruction budget — the
// same axes the paper's figure sweeps grid over. Zero-valued fields take
// server-side defaults during normalization.
type RunRequest struct {
	Workload string `json:"workload"`
	// Config is the Figure 4 processor: "baseline" (default) or
	// "aggressive".
	Config string `json:"config,omitempty"`
	// Mem selects the memory subsystem: "mdtsfc" (default), "lsq",
	// "value-replay", or "mvsfc".
	Mem string `json:"mem,omitempty"`
	// Pred selects the dependence-predictor mode: "enf", "not-enf",
	// "total", or "off"; empty picks the paper's default for the
	// (config, mem) pair.
	Pred string `json:"pred,omitempty"`
	// LQ/SQ size the load/store queues (lsq and value-replay only);
	// zero picks the paper's sizes for the processor configuration.
	LQ int `json:"lq,omitempty"`
	SQ int `json:"sq,omitempty"`
	// BPred selects the branch predictor: "gshare" (default) or "tage".
	BPred string `json:"bpred,omitempty"`
	// Prefetch selects the L1D hardware prefetcher: "none" (default) or
	// "stride".
	Prefetch string `json:"prefetch,omitempty"`
	// Preprobe enables the PCAX-style load-address pre-probe of the
	// SFC/MDT way memos (off by default; provably timing-only).
	Preprobe bool `json:"preprobe,omitempty"`
	// Insts is the correct-path instruction budget; zero picks the
	// server default, values above the server cap are rejected. Mutually
	// exclusive with Sampling, whose plan spans the budget instead.
	Insts uint64 `json:"insts,omitempty"`
	// Sampling, when present, switches the run to systematic interval
	// sampling: the plan's intervals are prepared once per workload
	// (reusing the server's checkpoint store) and measured under this
	// request's configuration. The result's headline numbers then describe
	// the measured intervals, with the sampling block alongside.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// Normalize fills defaults in place and validates every field against the
// given caps, so that two requests naming the same run — explicitly or via
// defaults — canonicalize to the same Key. A sampled request's Insts becomes
// its plan's span, so a normalized sampled request does not normalize again.
func (rq *RunRequest) Normalize(defaultInsts, maxInsts, maxFFInsts uint64) error {
	if _, ok := workload.Get(rq.Workload); !ok {
		return fmt.Errorf("%w: unknown workload %q", ErrBadRequest, rq.Workload)
	}
	switch rq.Config {
	case "":
		rq.Config = "baseline"
	case "baseline", "aggressive":
	default:
		return fmt.Errorf("%w: unknown config %q (want baseline or aggressive)", ErrBadRequest, rq.Config)
	}
	switch rq.Mem {
	case "":
		rq.Mem = "mdtsfc"
	case "mdtsfc", "lsq", "value-replay", "mvsfc":
	default:
		return fmt.Errorf("%w: unknown memory subsystem %q (want mdtsfc, lsq, value-replay, or mvsfc)", ErrBadRequest, rq.Mem)
	}
	if rq.Pred == "" {
		rq.Pred = defaultPred(rq.Config, rq.Mem)
	}
	switch rq.Pred {
	case "enf", "not-enf", "total", "off":
	default:
		return fmt.Errorf("%w: unknown predictor mode %q (want enf, not-enf, total, or off)", ErrBadRequest, rq.Pred)
	}
	switch rq.BPred {
	case "":
		rq.BPred = "gshare"
	case "gshare", "tage":
	default:
		return fmt.Errorf("%w: unknown branch predictor %q (want gshare or tage)", ErrBadRequest, rq.BPred)
	}
	switch rq.Prefetch {
	case "":
		rq.Prefetch = "none"
	case "none", "stride":
	default:
		return fmt.Errorf("%w: unknown prefetcher %q (want none or stride)", ErrBadRequest, rq.Prefetch)
	}
	if rq.LQ < 0 || rq.SQ < 0 {
		return fmt.Errorf("%w: negative queue size lq=%d sq=%d", ErrBadRequest, rq.LQ, rq.SQ)
	}
	if rq.Mem == "lsq" || rq.Mem == "value-replay" {
		if rq.LQ == 0 || rq.SQ == 0 {
			// The paper's LSQ sizes for each processor configuration.
			if rq.Config == "baseline" {
				rq.LQ, rq.SQ = 48, 32
			} else {
				rq.LQ, rq.SQ = 120, 80
			}
		}
	} else {
		rq.LQ, rq.SQ = 0, 0 // irrelevant for MDT/SFC variants; fold for keying
	}
	if sp := rq.Sampling; sp != nil {
		if rq.Insts != 0 {
			return fmt.Errorf("%w: insts and sampling are mutually exclusive (the plan spans the budget)", ErrBadRequest)
		}
		if err := sp.plan().Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if detailed := (sp.Warm + sp.Measure) * uint64(sp.Intervals); detailed > maxInsts {
			return fmt.Errorf("%w: sampling plan's detailed budget %d exceeds server cap %d", ErrBadRequest, detailed, maxInsts)
		}
		if ff := sp.FF * uint64(sp.Intervals); ff > maxFFInsts {
			return fmt.Errorf("%w: sampling plan fast-forwards %d insts, server cap is %d", ErrBadRequest, ff, maxFFInsts)
		}
		// The reported budget is the span the plan covers; the detailed
		// work is bounded by the plan itself, not by Insts.
		rq.Insts = sp.plan().Span()
		return nil
	}
	if rq.Insts == 0 {
		rq.Insts = defaultInsts
	}
	if rq.Insts > maxInsts {
		return fmt.Errorf("%w: insts %d exceeds server cap %d", ErrBadRequest, rq.Insts, maxInsts)
	}
	return nil
}

// defaultPred returns the paper's predictor choice for a (config, mem) pair:
// ENF pairwise on the baseline MDT/SFC, total-order on the aggressive
// MDT/SFC, true-only for the LSQ and multiversion variants (renaming or the
// CAM removes the need for anti/output enforcement), and off for value
// replay (no predictor can be trained — the violation's producer is unknown
// by construction).
func defaultPred(config, mem string) string {
	switch mem {
	case "mdtsfc":
		if config == "aggressive" {
			return "total"
		}
		return "enf"
	case "value-replay":
		return "off"
	default: // lsq, mvsfc
		return "not-enf"
	}
}

// Key returns the canonical cache/coalescing key of a normalized request.
// Identical runs — whatever mix of explicit fields and defaults produced
// them — map to identical keys.
func (rq RunRequest) Key() string {
	k := fmt.Sprintf("%s|%s|%s|%s|%d|%d|%d", rq.Workload, rq.Config, rq.Mem, rq.Pred, rq.LQ, rq.SQ, rq.Insts)
	if !rq.frontend().Default() {
		// Frontend options suffix the key only when non-default, so every
		// golden-default request keeps its historical key (and cache
		// entries written by older servers stay addressable).
		pp := 0
		if rq.Preprobe {
			pp = 1
		}
		k += fmt.Sprintf("|f:%s,%s,%d", rq.BPred, rq.Prefetch, pp)
	}
	if rq.Sampling != nil {
		// Sampled runs key on the plan too; unsampled keys keep their
		// historical format.
		k += "|" + rq.Sampling.key()
	}
	return k
}

// PlacementKey is the prefix of Key that names the expensive shared state a
// run depends on — the workload, the instruction budget, and the sampling
// plan, but not the timing configuration. The reference stream and the
// prepared interval checkpoints are keyed by exactly these axes, so the
// cluster coordinator routes by this key: every configuration of one
// (workload, budget) pair lands on the node that already owns the
// materialized stream and checkpoints, and the per-node singleflight
// guarantees one functional pass per key fleet-wide.
func (rq RunRequest) PlacementKey() string {
	k := fmt.Sprintf("%s|%d", rq.Workload, rq.Insts)
	if rq.Sampling != nil {
		k += "|" + rq.Sampling.key()
	}
	return k
}

// predMode maps the wire name to the predictor mode constant.
func predMode(pred string) core.PredictorMode {
	switch pred {
	case "enf":
		return core.PredPairwise
	case "total":
		return core.PredTotalOrder
	case "off":
		return core.PredOff
	default: // "not-enf"
		return core.PredTrueOnly
	}
}

// frontend maps the request's frontend fields to the harness options.
func (rq RunRequest) frontend() harness.Frontend {
	return harness.Frontend{BPred: rq.BPred, Prefetch: rq.Prefetch, Preprobe: rq.Preprobe}
}

// PipelineConfig builds the processor configuration a normalized request
// names, reusing the harness's Figure 4 constructors.
func (rq RunRequest) PipelineConfig() pipeline.Config {
	var kind pipeline.MemSysKind
	switch rq.Mem {
	case "lsq":
		kind = pipeline.MemLSQ
	case "value-replay":
		kind = pipeline.MemValueReplay
	case "mvsfc":
		kind = pipeline.MemMVSFC
	default:
		kind = pipeline.MemMDTSFC
	}
	v := harness.Variant{
		Label: rq.Mem + "-" + rq.Pred,
		Kind:  kind,
		LQ:    rq.LQ,
		SQ:    rq.SQ,
		Pred:  predMode(rq.Pred),
	}
	cfg := harness.BaselineConfig(v, rq.Insts)
	if rq.Config == "aggressive" {
		cfg = harness.AggressiveConfig(v, rq.Insts)
	}
	// Normalization already validated the names; Apply cannot fail here.
	rq.frontend().Apply(&cfg)
	return cfg
}

// SweepRequest names a grid of runs — the cross product of its axes, the
// service-side equivalent of the paper's figure sweeps. Empty axes default
// to a single element: every registered workload for Workloads, and the
// RunRequest defaults for the rest.
type SweepRequest struct {
	Workloads []string `json:"workloads,omitempty"` // empty = all registered
	Configs   []string `json:"configs,omitempty"`   // empty = ["baseline"]
	Mems      []string `json:"mems,omitempty"`      // empty = ["mdtsfc"]
	Preds     []string `json:"preds,omitempty"`     // empty = per-(config,mem) default
	// Frontend axes: branch predictors, prefetchers, and pre-probe
	// settings to cross with the grid. Empty axes default to the golden
	// frontend (gshare, no prefetch, no pre-probe).
	BPreds     []string `json:"bpreds,omitempty"`     // empty = ["gshare"]
	Prefetches []string `json:"prefetches,omitempty"` // empty = ["none"]
	Preprobes  []bool   `json:"preprobes,omitempty"`  // empty = [false]
	Insts      uint64   `json:"insts,omitempty"`
	// Sampling applies one sampling plan to every grid point. Each
	// workload's intervals are prepared once and shared by every
	// configuration measured against it, so a sampled sweep pays the
	// functional fast-forward per workload, not per point.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// Stats includes the full per-run counter set on each NDJSON line
	// (off by default: sweeps are usually after the headline numbers).
	Stats bool `json:"stats,omitempty"`
}

// Expand returns the grid's run requests in row-major order (workload
// outermost). The requests are not yet normalized.
func (sr SweepRequest) Expand() []RunRequest {
	ws := sr.Workloads
	if len(ws) == 0 {
		ws = workload.Names()
	}
	one := func(xs []string) []string {
		if len(xs) == 0 {
			return []string{""}
		}
		return xs
	}
	configs, mems, preds := one(sr.Configs), one(sr.Mems), one(sr.Preds)
	bpreds, prefetches := one(sr.BPreds), one(sr.Prefetches)
	preprobes := sr.Preprobes
	if len(preprobes) == 0 {
		preprobes = []bool{false}
	}
	n := len(ws) * len(configs) * len(mems) * len(preds) *
		len(bpreds) * len(prefetches) * len(preprobes)
	out := make([]RunRequest, 0, n)
	for _, w := range ws {
		for _, c := range configs {
			for _, m := range mems {
				for _, p := range preds {
					for _, bp := range bpreds {
						for _, pf := range prefetches {
							for _, pp := range preprobes {
								rq := RunRequest{
									Workload: w, Config: c, Mem: m, Pred: p,
									BPred: bp, Prefetch: pf, Preprobe: pp,
									Insts: sr.Insts,
								}
								if sr.Sampling != nil {
									sp := *sr.Sampling // each point owns its spec; normalize mutates requests
									rq.Sampling = &sp
								}
								out = append(out, rq)
							}
						}
					}
				}
			}
		}
	}
	return out
}

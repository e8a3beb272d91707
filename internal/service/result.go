package service

import (
	"sfcmdt/internal/harness"
	"sfcmdt/internal/metrics"
	"sfcmdt/internal/sample"
)

// Result is the machine-readable record of one simulation run — the single
// JSON schema shared by the service's /v1/run and /v1/sweep responses,
// sfcsim -json, and sfcload's response decoding. Headline numbers are
// duplicated out of Stats so lightweight clients need not carry the full
// counter set.
type Result struct {
	Workload string `json:"workload"`
	Class    string `json:"class,omitempty"` // "int" or "fp"
	Config   string `json:"config"`          // e.g. "baseline/mdtsfc-enf"
	Insts    uint64 `json:"insts,omitempty"` // requested instruction budget

	Cycles  uint64  `json:"cycles"`
	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc"`

	// Stats is the full counter set (omitted on sweep lines unless the
	// sweep asked for it).
	Stats *metrics.Stats `json:"stats,omitempty"`

	// Sampling is set on sampled runs: the plan and its per-interval
	// outcome. Cycles/Retired/IPC and Stats then describe the measured
	// intervals only.
	Sampling *SamplingResult `json:"sampling,omitempty"`

	// Serving metadata: how this response was produced. Cached means it
	// came from the result cache; Coalesced means the request piggybacked
	// on an identical in-flight run. Both false means this request paid
	// for a backend pipeline run of ElapsedMS milliseconds.
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Node, when the response was served through a cluster coordinator,
	// names the worker that executed (or cached) the run.
	Node string `json:"node,omitempty"`

	// Err is set on sweep lines whose run failed or was canceled; the
	// sweep keeps streaming the rest of the grid.
	Err string `json:"error,omitempty"`
}

// NewResult builds the shared result record from a run's inputs and stats.
// workloadClass may be empty when unknown.
func NewResult(wname, class, cfgName string, insts uint64, st *metrics.Stats) *Result {
	r := &Result{Workload: wname, Class: class, Config: cfgName, Insts: insts}
	if st != nil {
		r.Cycles = st.Cycles
		r.Retired = st.Retired
		r.IPC = st.IPC()
		r.Stats = st
	}
	return r
}

// SamplingResult is the sampled-run block of a Result: the plan that ran and
// the sampler's own quality signals.
type SamplingResult struct {
	Plan SamplingSpec `json:"plan"`
	// Intervals measured; fewer than the plan's if the program halted.
	Intervals int `json:"intervals"`
	// IPC is the sampled estimate (identical to the result's headline IPC);
	// CV is the population coefficient of variation of the per-interval
	// IPCs — high CV means the intervals disagree and the estimate is soft.
	IPC         float64   `json:"ipc"`
	CV          float64   `json:"cv"`
	IntervalIPC []float64 `json:"interval_ipc,omitempty"`
	// Instruction accounting: functionally fast-forwarded, detailed-warm
	// (statistics discarded), and measured. FFInsts is provenance: what
	// this serving's preparation fast-forwarded, 0 when every interval
	// start was restored from a checkpoint. Canonical zeroes it.
	FFInsts       uint64 `json:"ff_insts"`
	WarmInsts     uint64 `json:"warm_insts"`
	MeasuredInsts uint64 `json:"measured_insts"`
}

// NewSamplingResult converts a sampler aggregate to the wire block.
func NewSamplingResult(sr *sample.Result) *SamplingResult {
	return &SamplingResult{
		Plan: SamplingSpec{
			FF:        sr.Plan.FastForward,
			Warm:      sr.Plan.Warm,
			Measure:   sr.Plan.Measure,
			Intervals: sr.Plan.Intervals,
		},
		Intervals:     sr.Intervals,
		IPC:           sr.IPC,
		CV:            sr.CV,
		IntervalIPC:   sr.IntervalIPC,
		FFInsts:       sr.FFInsts,
		WarmInsts:     sr.WarmInsts,
		MeasuredInsts: sr.Measured.Retired,
	}
}

// resultFromHarness converts a successful harness result for a normalized
// request.
func resultFromHarness(rq RunRequest, hr harness.Result) *Result {
	res := NewResult(hr.Workload, string(hr.Class), hr.Config, rq.Insts, hr.Stats)
	if hr.Sample != nil {
		res.Sampling = NewSamplingResult(hr.Sample)
	}
	return res
}

// Canonical returns a shallow copy stripped of serving metadata — cache and
// coalesce provenance, wall-clock latency, the executing node, and a sampled
// run's Sampling.FFInsts (whether its checkpoints were fast-forwarded or
// restored) — the only fields that legitimately differ between two servings
// of the same deterministic run. Byte-comparing canonical sweep outputs is
// how the cluster smoke test asserts that a rerouted rerun is bit-identical
// to a single-node run. r itself, which the result cache may share, is not
// modified.
func (r *Result) Canonical() *Result {
	c := *r
	c.Cached, c.Coalesced, c.ElapsedMS, c.Node = false, false, 0, ""
	if r.Sampling != nil {
		sr := *r.Sampling
		sr.FFInsts = 0
		c.Sampling = &sr
	}
	return &c
}

// withoutStats returns a shallow copy stripped of the full counter set (for
// compact sweep lines).
func (r *Result) withoutStats() *Result {
	c := *r
	c.Stats = nil
	return &c
}

// SweepSummary is the final NDJSON line of a /v1/sweep response. Done
// distinguishes it from per-run Result lines (which never carry the field).
type SweepSummary struct {
	Done      bool    `json:"done"`
	Runs      int     `json:"runs"`   // grid points attempted
	OK        int     `json:"ok"`     // runs that returned a result
	Errors    int     `json:"errors"` // failed or canceled runs
	Cached    int     `json:"cached"` // served from the result cache
	Coalesced int     `json:"coalesced"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

package pipeline

import (
	"sfcmdt/internal/arch"
	"sfcmdt/internal/isa"
)

// ReplaySource supplies the correct-path dynamic instruction stream the
// pipeline simulates: fetch asks it for true branch outcomes and indirect
// targets (the paper's front-end oracle), retirement validates every
// instruction's results against it, and its length bounds the run.
//
// Two implementations exist: *arch.Trace — the golden-model lockstep oracle,
// records straight from the functional simulator — and *replay.View, a
// bounded view of a compact columnar stream materialized once per workload
// and shared across every configuration of a sweep (DESIGN.md §10). For a
// view, fetch and retirement read the stream's columns directly and build a
// record only to word a validation error; any other source answers through
// this interface, which makes the trace the reference for the column path.
// The two are pinned answer-identical by the replay package's round-trip
// tests and the replay-vs-lockstep equivalence tests, so which one backs a
// run is unobservable in the statistics.
//
// A source is read-only; one instance may back any number of concurrent
// pipelines.
type ReplaySource interface {
	// Len returns the number of correct-path instructions in the source.
	Len() int
	// PCAt returns instruction i's program counter.
	PCAt(i int) uint64
	// TakenAt returns instruction i's branch outcome.
	TakenAt(i int) bool
	// NextPCAt returns instruction i's architectural next PC.
	NextPCAt(i int) uint64
	// RecordAt returns instruction i's full retirement record (validation).
	RecordAt(i int) arch.Record
	// Decoded returns the predecode table for the program's code segment,
	// shared across runs; empty/nil if the source has none to share.
	Decoded() []isa.DecodedInst
}

var (
	_ ReplaySource = (*arch.Trace)(nil)
)

package arch

import (
	"fmt"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
)

// Record is the retirement record of one dynamic instruction: everything the
// pipeline needs to validate retirement and to know the correct-path control
// flow at fetch.
type Record struct {
	PC     uint64
	Inst   isa.Inst
	NextPC uint64

	HasDest bool
	Dest    isa.Reg
	DestVal uint64

	IsLoad   bool
	IsStore  bool
	Addr     uint64
	MemSize  int
	LoadVal  uint64
	StoreVal uint64

	IsBranch bool
	Taken    bool

	Halt bool
}

// RecordOf rebuilds the retirement record of instruction d, executed at pc,
// from what Exec returned for it. It is the one place the record's shape is
// derived from those outputs: Step and replay.Stream.RecordAt both call it,
// and Outputs is its inverse.
func RecordOf(d *isa.DecodedInst, pc, val, addr uint64, taken bool) Record {
	rec := Record{PC: pc, Inst: d.Inst, NextPC: NextPC(d, pc, addr, taken)}
	if d.HasDest {
		rec.HasDest, rec.Dest, rec.DestVal = true, d.DestReg, val
	}
	switch {
	case d.IsLoad:
		rec.IsLoad, rec.Addr, rec.MemSize, rec.LoadVal = true, addr, d.MemSize, val
	case d.IsStore:
		rec.IsStore, rec.Addr, rec.MemSize, rec.StoreVal = true, addr, d.MemSize, val
	case d.IsBranch:
		rec.IsBranch, rec.Taken = true, taken
	case d.IsJump:
		rec.IsBranch, rec.Taken = true, true
	case d.Inst.Op == isa.OpHalt:
		rec.Halt = true
	}
	return rec
}

// NextPC is the architectural next PC of instruction d executed at pc, given
// Exec's addr and taken outputs for it: the immediate-relative target for a
// taken branch and for JAL, addr for JALR, the parked PC for HALT, and the
// fall-through otherwise.
func NextPC(d *isa.DecodedInst, pc, addr uint64, taken bool) uint64 {
	switch {
	case d.IsBranch && taken, d.Inst.Op == isa.OpJal:
		return pc + 4 + uint64(int64(d.Inst.Imm))*4
	case d.Inst.Op == isa.OpJalr:
		return addr
	case d.Inst.Op == isa.OpHalt:
		return pc
	}
	return pc + 4
}

// Outputs returns what Exec returned for the instruction r records, the
// inverse of RecordOf.
func (r *Record) Outputs() (val, addr uint64, taken bool) {
	switch {
	case r.IsLoad:
		val = r.LoadVal
	case r.IsStore:
		val = r.StoreVal
	default:
		val = r.DestVal
	}
	addr = r.Addr
	if r.Inst.Op == isa.OpJalr {
		addr = r.NextPC
	}
	return val, addr, r.Taken
}

// Trace is the correct-path dynamic instruction stream of a program run.
type Trace struct {
	Recs   []Record
	Halted bool // true if the program executed HALT within the budget

	// Dec is the pre-decoded static code segment (Dec[i] describes the
	// instruction at CodeBase+4*i). RunTrace builds it once per program; the
	// harness shares the trace — and with it this table — across every
	// configuration run and worker goroutine. It is read-only after
	// construction.
	Dec []isa.DecodedInst
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Recs) }

// At returns record i.
func (t *Trace) At(i int) *Record { return &t.Recs[i] }

// The point accessors below make *Trace a pipeline.ReplaySource — the
// lockstep-oracle implementation, answering from the AoS records the
// functional model produced directly.

// PCAt returns record i's program counter.
func (t *Trace) PCAt(i int) uint64 { return t.Recs[i].PC }

// TakenAt returns record i's branch outcome.
func (t *Trace) TakenAt(i int) bool { return t.Recs[i].Taken }

// NextPCAt returns record i's architectural next PC.
func (t *Trace) NextPCAt(i int) uint64 { return t.Recs[i].NextPC }

// RecordAt returns record i by value.
func (t *Trace) RecordAt(i int) Record { return t.Recs[i] }

// Decoded returns the shared predecode table.
func (t *Trace) Decoded() []isa.DecodedInst { return t.Dec }

// RunTrace executes the program on the functional model for at most maxInsts
// instructions and returns the trace. The pipeline simulates exactly this
// dynamic instruction stream and validates its own retirement against it.
func RunTrace(img *prog.Image, maxInsts uint64) (*Trace, error) {
	m := New(img)
	t := &Trace{
		Recs: make([]Record, 0, min64(maxInsts, 1<<20)),
		Dec:  isa.Predecode(img.Code),
	}
	for m.Count < maxInsts && !m.Halted {
		rec, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("arch: %s: after %d insts: %w", img.Name, m.Count, err)
		}
		t.Recs = append(t.Recs, rec)
	}
	t.Halted = m.Halted
	if len(t.Recs) == 0 {
		return nil, fmt.Errorf("arch: %s: empty trace", img.Name)
	}
	return t, nil
}

// RunTraceFrom executes up to n further instructions on an existing machine
// (typically one restored from a checkpoint or advanced by fast-forward) and
// returns their trace. The machine is mutated in place, so the caller can
// chain fast-forward and traced intervals over one machine. An empty trace is
// not an error here: a machine that has already halted legitimately yields
// zero records.
func RunTraceFrom(m *Machine, n uint64) (*Trace, error) {
	t := &Trace{
		Recs: make([]Record, 0, min64(n, 1<<20)),
		Dec:  isa.Predecode(m.Img.Code),
	}
	target := m.Count + n
	for m.Count < target && !m.Halted {
		rec, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("arch: %s: after %d insts: %w", m.Img.Name, m.Count, err)
		}
		t.Recs = append(t.Recs, rec)
	}
	t.Halted = m.Halted
	return t, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

package arch

import "sfcmdt/internal/isa"

// Record is the retirement record of one dynamic instruction, as Step returns
// it and replay.Stream.RecordAt rebuilds it from the stream's columns: the
// pipeline words a failed retirement check from it.
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
// derived from those outputs: Step and replay.Stream.RecordAt both call it.
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

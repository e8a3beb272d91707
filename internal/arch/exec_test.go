package arch

import (
	"encoding/binary"
	"fmt"
	"testing"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/workload"
)

// refStep is the functional model's interpreter as it was before Exec: a
// second, independently written copy of the ISA semantics that builds the
// retirement record as it executes. FuzzExecVsReference holds Exec and
// RecordOf to it.
func refStep(m *Machine) (Record, error) {
	if m.Halted {
		return Record{}, fmt.Errorf("arch: step after halt")
	}
	in, ok := m.Img.InstAt(m.PC)
	if !ok {
		return Record{}, fmt.Errorf("arch: PC %#x outside code segment", m.PC)
	}
	rec := Record{PC: m.PC, Inst: in, NextPC: m.PC + 4}
	rs1 := m.Regs[in.Rs1]
	rs2 := m.Regs[in.Rs2]

	setRd := func(v uint64) {
		// Writes to R0 are discarded and recorded as having no
		// destination, matching the pipeline's rename stage.
		if in.Rd != isa.Zero {
			rec.HasDest = true
			rec.Dest = in.Rd
			rec.DestVal = v
			m.Regs[in.Rd] = v
		}
	}

	switch in.Op {
	case isa.OpAdd:
		setRd(rs1 + rs2)
	case isa.OpSub:
		setRd(rs1 - rs2)
	case isa.OpAnd:
		setRd(rs1 & rs2)
	case isa.OpOr:
		setRd(rs1 | rs2)
	case isa.OpXor:
		setRd(rs1 ^ rs2)
	case isa.OpSll:
		setRd(rs1 << (rs2 & 63))
	case isa.OpSrl:
		setRd(rs1 >> (rs2 & 63))
	case isa.OpSra:
		setRd(uint64(int64(rs1) >> (rs2 & 63)))
	case isa.OpSlt:
		setRd(boolToU64(int64(rs1) < int64(rs2)))
	case isa.OpSltu:
		setRd(boolToU64(rs1 < rs2))
	case isa.OpMul:
		setRd(rs1 * rs2)
	case isa.OpDiv:
		setRd(divSemantics(int64(rs1), int64(rs2)))
	case isa.OpRem:
		setRd(remSemantics(int64(rs1), int64(rs2)))

	case isa.OpAddi:
		setRd(rs1 + uint64(int64(in.Imm)))
	case isa.OpAndi:
		setRd(rs1 & uint64(int64(in.Imm)))
	case isa.OpOri:
		setRd(rs1 | uint64(int64(in.Imm)))
	case isa.OpXori:
		setRd(rs1 ^ uint64(int64(in.Imm)))
	case isa.OpSlli:
		setRd(rs1 << (uint64(in.Imm) & 63))
	case isa.OpSrli:
		setRd(rs1 >> (uint64(in.Imm) & 63))
	case isa.OpSrai:
		setRd(uint64(int64(rs1) >> (uint64(in.Imm) & 63)))
	case isa.OpSlti:
		setRd(boolToU64(int64(rs1) < int64(in.Imm)))

	case isa.OpMovz:
		setRd(uint64(uint32(in.Imm)) << (16 * uint(in.Sh)))
	case isa.OpMovk:
		old := m.Regs[in.Rd]
		mask := uint64(0xFFFF) << (16 * uint(in.Sh))
		setRd(old&^mask | uint64(uint32(in.Imm))<<(16*uint(in.Sh)))

	case isa.OpLb, isa.OpLbu, isa.OpLh, isa.OpLhu, isa.OpLw, isa.OpLwu, isa.OpLd:
		size := in.Op.MemSize()
		addr := rs1 + uint64(int64(in.Imm))
		if addr%uint64(size) != 0 {
			return Record{}, fmt.Errorf("arch: misaligned %s at PC %#x: addr %#x", in.Op, m.PC, addr)
		}
		raw := m.Mem.ReadUint(addr, size)
		v := extend(raw, size, in.Op.Signed())
		rec.IsLoad, rec.Addr, rec.MemSize, rec.LoadVal = true, addr, size, v
		setRd(v)

	case isa.OpSb, isa.OpSh, isa.OpSw, isa.OpSd:
		size := in.Op.MemSize()
		addr := rs1 + uint64(int64(in.Imm))
		if addr%uint64(size) != 0 {
			return Record{}, fmt.Errorf("arch: misaligned %s at PC %#x: addr %#x", in.Op, m.PC, addr)
		}
		val := rs2 & sizeMask(size)
		m.Mem.WriteUint(addr, size, val)
		rec.IsStore, rec.Addr, rec.MemSize, rec.StoreVal = true, addr, size, val

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		taken := evalBranch(in.Op, rs1, rs2)
		rec.IsBranch = true
		rec.Taken = taken
		if taken {
			rec.NextPC = m.PC + 4 + uint64(int64(in.Imm))*4
		}

	case isa.OpJal:
		setRd(m.PC + 4)
		rec.IsBranch = true
		rec.Taken = true
		rec.NextPC = m.PC + 4 + uint64(int64(in.Imm))*4

	case isa.OpJalr:
		target := (rs1 + uint64(int64(in.Imm))) &^ 3
		setRd(m.PC + 4)
		rec.IsBranch = true
		rec.Taken = true
		rec.NextPC = target

	case isa.OpHalt:
		m.Halted = true
		rec.Halt = true
		rec.NextPC = m.PC // parked

	case isa.OpNop:
		// nothing

	default:
		return Record{}, fmt.Errorf("arch: unimplemented op %v at PC %#x", in.Op, m.PC)
	}

	m.PC = rec.NextPC
	m.Count++
	return rec, nil
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

// lockstepSteps bounds one lockstep comparison.
const lockstepSteps = 1000

// lockstep runs img from regs on two machines, one stepped by refStep and
// one by Exec, until lockstepSteps instructions or the first error. After
// every step it compares Exec's outputs with the reference record's, the
// record RecordOf rebuilds from them field for field, the error text,
// registers, PC, Count and Halted; at the end it compares every memory word
// either side stored to. It returns the error that ended the run, if any.
func lockstep(t *testing.T, img *prog.Image, regs [isa.NumRegs]uint64) error {
	t.Helper()
	ref, m := New(img), New(img)
	ref.Regs, m.Regs = regs, regs
	dec := isa.Predecode(img.Code)
	written := map[uint64]bool{}
	var err error
	for i := 0; i < lockstepSteps && err == nil; i++ {
		pc := m.PC
		want, wantErr := refStep(ref)
		var val, addr uint64
		var taken bool
		val, addr, taken, err = m.Exec()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("step %d at %#x: Exec error %v, reference %v", i, pc, err, wantErr)
		}
		if err == nil {
			wv, wa, wt := want.Outputs()
			if val != wv || addr != wa || taken != wt {
				t.Fatalf("step %d at %#x (%v): Exec returned val=%#x addr=%#x taken=%v, reference record says %#x %#x %v",
					i, pc, want.Inst, val, addr, taken, wv, wa, wt)
			}
			if got := RecordOf(&dec[(pc-img.CodeBase)/4], pc, val, addr, taken); got != want {
				t.Fatalf("step %d at %#x: rebuilt record\n got  %+v\n want %+v", i, pc, got, want)
			}
			if want.IsStore {
				written[want.Addr&^7] = true
			}
			if dec[(pc-img.CodeBase)/4].IsStore {
				written[addr&^7] = true
			}
		}
		if m.Regs != ref.Regs || m.PC != ref.PC || m.Count != ref.Count || m.Halted != ref.Halted {
			t.Fatalf("step %d at %#x: state diverged\n Exec: pc=%#x count=%d halted=%v regs=%#x\n ref:  pc=%#x count=%d halted=%v regs=%#x",
				i, pc, m.PC, m.Count, m.Halted, m.Regs, ref.PC, ref.Count, ref.Halted, ref.Regs)
		}
	}
	for a := range written {
		if got, want := m.Mem.ReadWord64(a), ref.Mem.ReadWord64(a); got != want {
			t.Fatalf("memory word %#x: Exec machine holds %#x, reference %#x", a, got, want)
		}
	}
	return err
}

// fuzzImage decodes code as little-endian instruction words, skipping
// invalid ones, into an image at the default segment placement with data as
// its data segment. It returns nil when no word decodes.
func fuzzImage(code, data []byte) *prog.Image {
	img := &prog.Image{Name: "fuzz", CodeBase: prog.DefaultCodeBase, DataBase: prog.DefaultDataBase,
		Data: data, Entry: prog.DefaultCodeBase}
	for ; len(code) >= 4; code = code[4:] {
		if in, err := isa.Decode(binary.LittleEndian.Uint32(code)); err == nil {
			img.Code = append(img.Code, in)
		}
	}
	if len(img.Code) == 0 {
		return nil
	}
	return img
}

// fuzzRegs is the initial register file: New's (r29 is the stack pointer),
// overwritten from r1 up by regs read as little-endian 64-bit words.
func fuzzRegs(regs []byte) [isa.NumRegs]uint64 {
	var r [isa.NumRegs]uint64
	r[29] = prog.DefaultStackTop
	for i := 1; i < isa.NumRegs && len(regs) >= 8; i, regs = i+1, regs[8:] {
		r[i] = binary.LittleEndian.Uint64(regs)
	}
	return r
}

// encodeCode is fuzzImage's inverse for a seed: the image's code as words.
func encodeCode(img *prog.Image) []byte {
	b := make([]byte, 0, 4*len(img.Code))
	for _, in := range img.Code {
		b = binary.LittleEndian.AppendUint32(b, in.Encode())
	}
	return b
}

// faultProgram is a seed program and the error text its run must end with.
type faultProgram struct {
	img   *prog.Image
	fault string
}

// faultPrograms returns one program per fault a decoded word can reach,
// plus one that writes R0 every way an instruction can. Built at the
// default segments, they seed the fuzz corpus as words.
func faultPrograms() []faultProgram {
	var progs []faultProgram

	b := prog.NewBuilder("halt") // the step after HALT fails
	b.Nop()
	b.Halt()
	progs = append(progs, faultProgram{b.MustBuild(), "arch: step after halt"})

	b = prog.NewBuilder("void") // JALR out of the code segment
	b.Li(1, 0xF000)
	b.Jalr(0, 0, 1)
	progs = append(progs, faultProgram{b.MustBuild(), "arch: PC 0xf000 outside code segment"})

	b = prog.NewBuilder("runoff") // falling off the end of the code
	b.Nop()
	progs = append(progs, faultProgram{b.MustBuild(), "arch: PC 0x10004 outside code segment"})

	b = prog.NewBuilder("misload")
	buf := b.Word64(0x8877665544332211, 0x1122334455667788)
	b.La(1, buf)
	b.Lw(2, 4, 1)
	b.Lw(2, 2, 1)
	b.Halt()
	progs = append(progs, faultProgram{b.MustBuild(), "arch: misaligned lw at PC 0x10008: addr 0x10000002"})

	b = prog.NewBuilder("misstore")
	buf = b.Alloc(16, 8)
	b.La(1, buf)
	b.Li(2, 0xDEADBEEFCAFE)
	b.Sh2(2, 6, 1)
	b.Sd(2, 4, 1)
	b.Halt()
	progs = append(progs, faultProgram{b.MustBuild(), "arch: misaligned sd at PC 0x10014: addr 0x10000004"})

	b = prog.NewBuilder("r0")
	buf = b.Word64(0x8000_0000_0000_00F1)
	b.La(1, buf)
	b.Addi(0, 1, 5) // ALU write to R0: reports 0
	b.Ld(0, 0, 1)   // load into R0: reports the loaded value, R0 stays 0
	b.Lb(0, 0, 1)
	b.Sd(1, 8, 1)
	b.Jal(0, "next") // JAL and JALR linking into R0 report 0
	b.Label("next")
	b.Emit(isa.Inst{Op: isa.OpJal, Rd: 31, Imm: 0})
	b.Emit(isa.Inst{Op: isa.OpJalr, Rd: 0, Rs1: 31, Imm: 4})
	b.Nop()
	b.Emit(isa.Inst{Op: isa.OpMovz, Rd: 0, Imm: 0x1234, Sh: 1})
	b.Emit(isa.Inst{Op: isa.OpMovk, Rd: 0, Imm: 0x1234, Sh: 1})
	b.Halt()
	progs = append(progs, faultProgram{b.MustBuild(), "arch: step after halt"})
	return progs
}

// FuzzExecVsReference holds the interpreter (Exec, and the record RecordOf
// rebuilds from its outputs) to refStep on arbitrary code, registers and
// data. The seeds are code from several workloads and one program per fault.
func FuzzExecVsReference(f *testing.F) {
	const maxData = 512
	for _, name := range []string{"gzip", "mcf", "swim", "bzip2", "equake"} {
		w, ok := workload.Get(name)
		if !ok {
			f.Fatalf("workload %q missing", name)
		}
		img := w.Build()
		data := img.Data
		if len(data) > maxData {
			data = data[:maxData]
		}
		f.Add(encodeCode(img), []byte(nil), data)
	}
	for _, p := range faultPrograms() {
		f.Add(encodeCode(p.img), []byte(nil), p.img.Data)
	}
	f.Fuzz(func(t *testing.T, code, regs, data []byte) {
		if len(data) > maxData {
			data = data[:maxData]
		}
		if img := fuzzImage(code, data); img != nil {
			lockstep(t, img, fuzzRegs(regs))
		}
	})
}

// TestExecFaultsVsReference runs every fault program in lockstep, checking
// that each ends in its fault, and the fault no decoded word can reach: an
// opcode the interpreter does not implement.
func TestExecFaultsVsReference(t *testing.T) {
	progs := faultPrograms()
	for _, op := range []isa.Op{isa.OpInvalid, 63} {
		img := &prog.Image{Name: "unimpl", CodeBase: prog.DefaultCodeBase,
			Code: []isa.Inst{{Op: isa.OpNop}, {Op: op, Rd: 1}}, Entry: prog.DefaultCodeBase}
		progs = append(progs, faultProgram{img, fmt.Sprintf("arch: unimplemented op %v at PC 0x10004", op)})
	}
	for _, p := range progs {
		err := lockstep(t, p.img, fuzzRegs(nil))
		if err == nil || err.Error() != p.fault {
			t.Errorf("%s: run ended with %v, want %q", p.img.Name, err, p.fault)
		}
	}
}

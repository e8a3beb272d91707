// Package arch implements the architectural (functional) simulator: the
// golden model that executes programs one instruction at a time with exact
// ISA semantics. The cycle-level pipeline validates every retiring
// instruction against a reference stream produced by this model (Run, with
// a column sink), mirroring the paper's methodology ("the results produced by retiring instructions are validated
// against a trace generated by an architectural simulator").
package arch

import (
	"fmt"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/mem"
	"sfcmdt/internal/prog"
)

// Machine is the architectural state.
type Machine struct {
	Regs   [isa.NumRegs]uint64
	PC     uint64
	Mem    *mem.Sparse
	Img    *prog.Image
	Halted bool
	Count  uint64 // retired instruction count
}

// New loads an image into a fresh machine.
func New(img *prog.Image) *Machine {
	m := &Machine{PC: img.Entry, Mem: mem.NewSparse(), Img: img}
	m.Mem.SetBytes(img.DataBase, img.Data)
	m.Regs[29] = prog.DefaultStackTop // conventional stack pointer
	return m
}

// LoadMemory returns a fresh Sparse initialized exactly as New initializes
// machine memory; the pipeline uses it for its own memory image.
func LoadMemory(img *prog.Image) *mem.Sparse {
	s := mem.NewSparse()
	s.SetBytes(img.DataBase, img.Data)
	return s
}

// LoadMemoryInto reinitializes an existing Sparse to the image's initial
// memory — the Reset-path counterpart of LoadMemory, reusing the page table.
func LoadMemoryInto(s *mem.Sparse, img *prog.Image) {
	s.Reset()
	s.SetBytes(img.DataBase, img.Data)
}

// Exec executes one instruction — the one-instruction case of Run, the
// functional model's one interpreter — and returns only what the replay
// stream keeps of it (see replay.Stream):
//
//   - val is the instruction's one dynamic value: the extended load result
//     for a load (also when it loads into R0), the masked store data for a
//     store, and otherwise the destination value, 0 when the destination is
//     R0 or the instruction writes no register;
//   - addr is the effective address of a load or store, JALR's target, and
//     0 otherwise;
//   - taken is the branch outcome, always set for JAL and JALR.
//
// It advances PC and Count. On error the machine is left unchanged. Step and
// replay.Stream.RecordAt rebuild the full record from these outputs with
// RecordOf.
func (m *Machine) Exec() (val, addr uint64, taken bool, err error) {
	if m.Halted {
		return 0, 0, false, fmt.Errorf("arch: step after halt")
	}
	return m.run(1, nil)
}

// Columns is the sink Run appends Exec's outputs to, one entry per executed
// instruction: its static code index, its value and its address, and its
// branch outcome as bit i of the Taken bitset. replay.Stream embeds it.
type Columns struct {
	CodeIdx []uint32
	Val     []uint64
	Addr    []uint64
	Taken   []uint64 // bitset over entries
}

// Append adds one instruction's entry.
func (c *Columns) Append(idx uint32, val, addr uint64, taken bool) {
	i := len(c.CodeIdx)
	c.CodeIdx = append(c.CodeIdx, idx)
	c.Val = append(c.Val, val)
	c.Addr = append(c.Addr, addr)
	if i>>6 >= len(c.Taken) {
		c.Taken = append(c.Taken, 0)
	}
	if taken {
		c.Taken[i>>6] |= 1 << uint(i&63)
	}
}

// TakenAt reports entry i's branch outcome.
func (c *Columns) TakenAt(i int) bool {
	return c.Taken[i>>6]&(1<<uint(i&63)) != 0
}

// Run executes up to n instructions, stopping early at HALT; on a machine
// that has already halted it executes none. It is the loop fast-forward and
// stream materialization run on, with Exec's checks and outputs: when out is
// non-nil it appends each instruction's code index and outputs to it. On a
// fault the machine holds the state after the last instruction that
// completed, and out ends with that instruction's entry.
func (m *Machine) Run(n uint64, out *Columns) error {
	_, _, _, err := m.run(n, out)
	return err
}

// run is Run, returning the last executed instruction's outputs for Exec.
// It keeps PC, Count and the code segment in locals and writes PC and Count
// back on every exit.
func (m *Machine) run(n uint64, out *Columns) (val, addr uint64, taken bool, err error) {
	code, base := m.Img.Code, m.Img.CodeBase
	if out != nil && (base%4 != 0 || uint64(len(code)) > 1<<32) {
		// Every PC the loop accepts then has a 32-bit code index.
		return 0, 0, false, fmt.Errorf("arch: %d-instruction code segment at %#x has no 32-bit word index", len(code), base)
	}
	regs, memory := &m.Regs, m.Mem
	pc, count := m.PC, m.Count
loop:
	for ; n > 0 && !m.Halted; n-- {
		idx := (pc - base) / 4
		if pc < base || pc%4 != 0 || idx >= uint64(len(code)) {
			err = fmt.Errorf("arch: PC %#x outside code segment", pc)
			break
		}
		in := code[idx]
		next := pc + 4
		rs1 := regs[in.Rs1]
		rs2 := regs[in.Rs2]
		imm := uint64(int64(in.Imm))
		writesRd := true
		val, addr, taken = 0, 0, false

		switch in.Op {
		case isa.OpAdd:
			val = rs1 + rs2
		case isa.OpSub:
			val = rs1 - rs2
		case isa.OpAnd:
			val = rs1 & rs2
		case isa.OpOr:
			val = rs1 | rs2
		case isa.OpXor:
			val = rs1 ^ rs2
		case isa.OpSll:
			val = rs1 << (rs2 & 63)
		case isa.OpSrl:
			val = rs1 >> (rs2 & 63)
		case isa.OpSra:
			val = uint64(int64(rs1) >> (rs2 & 63))
		case isa.OpSlt:
			val = boolToU64(int64(rs1) < int64(rs2))
		case isa.OpSltu:
			val = boolToU64(rs1 < rs2)
		case isa.OpMul:
			val = rs1 * rs2
		case isa.OpDiv:
			val = divSemantics(int64(rs1), int64(rs2))
		case isa.OpRem:
			val = remSemantics(int64(rs1), int64(rs2))

		case isa.OpAddi:
			val = rs1 + imm
		case isa.OpAndi:
			val = rs1 & imm
		case isa.OpOri:
			val = rs1 | imm
		case isa.OpXori:
			val = rs1 ^ imm
		case isa.OpSlli:
			val = rs1 << (imm & 63)
		case isa.OpSrli:
			val = rs1 >> (imm & 63)
		case isa.OpSrai:
			val = uint64(int64(rs1) >> (imm & 63))
		case isa.OpSlti:
			val = boolToU64(int64(rs1) < int64(imm))

		case isa.OpMovz:
			val = uint64(uint32(in.Imm)) << (16 * uint(in.Sh))
		case isa.OpMovk:
			mask := uint64(0xFFFF) << (16 * uint(in.Sh))
			val = regs[in.Rd]&^mask | uint64(uint32(in.Imm))<<(16*uint(in.Sh))

		case isa.OpLb, isa.OpLbu, isa.OpLh, isa.OpLhu, isa.OpLw, isa.OpLwu, isa.OpLd:
			size := in.Op.MemSize()
			addr = rs1 + imm
			if addr&uint64(size-1) != 0 { // sizes are powers of two
				err = fmt.Errorf("arch: misaligned %s at PC %#x: addr %#x", in.Op, pc, addr)
				break loop
			}
			val = extend(memory.ReadUint(addr, size), size, in.Op.Signed())
			if in.Rd != isa.Zero {
				regs[in.Rd] = val
			}
			writesRd = false // a load into R0 still reports its value

		case isa.OpSb, isa.OpSh, isa.OpSw, isa.OpSd:
			size := in.Op.MemSize()
			addr = rs1 + imm
			if addr&uint64(size-1) != 0 { // sizes are powers of two
				err = fmt.Errorf("arch: misaligned %s at PC %#x: addr %#x", in.Op, pc, addr)
				break loop
			}
			val = rs2 & sizeMask(size)
			memory.WriteUint(addr, size, val)
			writesRd = false

		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
			taken = evalBranch(in.Op, rs1, rs2)
			if taken {
				next += imm * 4
			}
			writesRd = false

		case isa.OpJal:
			val, taken = pc+4, true
			next += imm * 4

		case isa.OpJalr:
			addr = (rs1 + imm) &^ 3
			val, taken, next = pc+4, true, addr

		case isa.OpHalt:
			m.Halted = true
			next = pc // parked
			writesRd = false

		case isa.OpNop:
			writesRd = false

		default:
			err = fmt.Errorf("arch: unimplemented op %v at PC %#x", in.Op, pc)
			break loop
		}

		// Writes to R0 are discarded and report no value, matching the
		// pipeline's rename stage.
		if writesRd {
			if in.Rd == isa.Zero {
				val = 0
			} else {
				regs[in.Rd] = val
			}
		}
		if out != nil {
			out.Append(uint32(idx), val, addr, taken)
		}
		pc = next
		count++
	}
	m.PC, m.Count = pc, count
	if err != nil {
		return 0, 0, false, err
	}
	return val, addr, taken, nil
}

// Step executes one instruction and returns its retirement record: Exec,
// with the record rebuilt from its outputs by RecordOf.
func (m *Machine) Step() (Record, error) {
	pc := m.PC
	val, addr, taken, err := m.Exec()
	if err != nil {
		return Record{}, err
	}
	d := isa.PredecodeInst(m.Img.Code[(pc-m.Img.CodeBase)/4])
	return RecordOf(&d, pc, val, addr, taken), nil
}

// EvalBranch evaluates a conditional branch's direction given its operand
// values; shared with the pipeline's execute stage.
func evalBranch(op isa.Op, rs1, rs2 uint64) bool {
	switch op {
	case isa.OpBeq:
		return rs1 == rs2
	case isa.OpBne:
		return rs1 != rs2
	case isa.OpBlt:
		return int64(rs1) < int64(rs2)
	case isa.OpBge:
		return int64(rs1) >= int64(rs2)
	case isa.OpBltu:
		return rs1 < rs2
	case isa.OpBgeu:
		return rs1 >= rs2
	}
	return false
}

// EvalBranch is the exported form of the branch-direction evaluator.
func EvalBranch(op isa.Op, rs1, rs2 uint64) bool { return evalBranch(op, rs1, rs2) }

// DivSemantics implements division with total semantics (no faults):
// division by zero yields -1, and the INT64_MIN/-1 overflow case yields
// INT64_MIN, following the RISC-V convention.
func divSemantics(a, b int64) uint64 {
	switch {
	case b == 0:
		return ^uint64(0)
	case a == -1<<63 && b == -1:
		return uint64(a)
	default:
		return uint64(a / b)
	}
}

func remSemantics(a, b int64) uint64 {
	switch {
	case b == 0:
		return uint64(a)
	case a == -1<<63 && b == -1:
		return 0
	default:
		return uint64(a % b)
	}
}

// DivOp and RemOp expose total division semantics for the pipeline.
func DivOp(a, b uint64) uint64 { return divSemantics(int64(a), int64(b)) }
func RemOp(a, b uint64) uint64 { return remSemantics(int64(a), int64(b)) }

func extend(raw uint64, size int, signed bool) uint64 {
	if !signed || size == 8 {
		return raw & sizeMask(size)
	}
	sh := uint(64 - size*8)
	return uint64(int64(raw<<sh) >> sh)
}

// Extend sign- or zero-extends a raw little-endian load of the given size;
// shared with the pipeline memory unit.
func Extend(raw uint64, size int, signed bool) uint64 { return extend(raw, size, signed) }

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// SizeMask returns the mask covering the low size bytes.
func SizeMask(size int) uint64 { return sizeMask(size) }

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

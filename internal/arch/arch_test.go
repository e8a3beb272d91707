package arch

import (
	"math/rand"
	"testing"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
)

// runProgram executes a built image to completion (bounded) and returns the
// machine for register inspection.
func runProgram(t *testing.T, img *prog.Image, maxInsts uint64) *Machine {
	t.Helper()
	m := New(img)
	for m.Count < maxInsts && !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", m.Count, err)
		}
	}
	if !m.Halted {
		t.Fatalf("program did not halt within %d instructions", maxInsts)
	}
	return m
}

func TestFibonacci(t *testing.T) {
	b := prog.NewBuilder("fib")
	b.Li(1, 0)  // a
	b.Li(2, 1)  // b
	b.Li(3, 20) // n
	b.Label("loop")
	b.Add(4, 1, 2)
	b.Mov(1, 2)
	b.Mov(2, 4)
	b.Addi(3, 3, -1)
	b.Bne(3, 0, "loop")
	b.Halt()
	m := runProgram(t, b.MustBuild(), 1000)
	if m.Regs[1] != 6765 { // fib(20)
		t.Fatalf("fib(20) = %d, want 6765", m.Regs[1])
	}
}

func TestMemcpyAndSubword(t *testing.T) {
	b := prog.NewBuilder("memcpy")
	src := b.Word64(0x1122334455667788, 0xAABBCCDDEEFF0011)
	dst := b.Alloc(16, 8)
	b.La(1, src)
	b.La(2, dst)
	b.Li(3, 16)
	b.Label("loop")
	b.Lbu(4, 0, 1)
	b.Sb(4, 0, 2)
	b.Addi(1, 1, 1)
	b.Addi(2, 2, 1)
	b.Addi(3, 3, -1)
	b.Bne(3, 0, "loop")
	// Reload as words and subwords with sign extension.
	b.La(5, dst)
	b.Ld(6, 0, 5)
	b.Lb(7, 7, 5)  // 0x11 -> 17
	b.Lh(8, 8, 5)  // 0x0011
	b.Lw(9, 12, 5) // 0xAABBCCDD -> negative
	b.Halt()
	m := runProgram(t, b.MustBuild(), 1000)
	if m.Regs[6] != 0x1122334455667788 {
		t.Errorf("copied word %#x", m.Regs[6])
	}
	if m.Regs[7] != 0x11 {
		t.Errorf("lb %#x", m.Regs[7])
	}
	if m.Regs[9] != 0xFFFFFFFFAABBCCDD {
		t.Errorf("lw sign extension %#x", m.Regs[9])
	}
}

func negU(x int64) uint64 { return uint64(-x) }

func TestDivRemSemantics(t *testing.T) {
	cases := []struct {
		a, b     int64
		div, rem uint64
	}{
		{7, 2, 3, 1},
		{-7, 2, negU(3), negU(1)},
		{7, 0, ^uint64(0), 7},      // divide by zero
		{-1 << 63, -1, 1 << 63, 0}, // overflow case
		{100, -3, negU(33), 1},
	}
	for _, c := range cases {
		if got := DivOp(uint64(c.a), uint64(c.b)); got != c.div {
			t.Errorf("div(%d,%d) = %#x, want %#x", c.a, c.b, got, c.div)
		}
		if got := RemOp(uint64(c.a), uint64(c.b)); got != c.rem {
			t.Errorf("rem(%d,%d) = %#x, want %#x", c.a, c.b, got, c.rem)
		}
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	b := prog.NewBuilder("misaligned")
	buf := b.Alloc(16, 8)
	b.La(1, buf)
	b.Ld(2, 0, 1) // aligned: fine
	b.Addi(1, 1, 1)
	b.Ld(2, 0, 1) // misaligned 8-byte load
	b.Halt()
	m := New(b.MustBuild())
	for i := 0; i < 10; i++ {
		if _, err := m.Step(); err != nil {
			return // expected fault
		}
	}
	t.Fatal("misaligned load did not fault")
}

func TestBranchEval(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b uint64
		want bool
	}{
		{isa.OpBeq, 5, 5, true},
		{isa.OpBne, 5, 5, false},
		{isa.OpBlt, ^uint64(0), 1, true},   // -1 < 1 signed
		{isa.OpBltu, ^uint64(0), 1, false}, // max > 1 unsigned
		{isa.OpBge, 3, 3, true},
		{isa.OpBgeu, 0, 1, false},
	}
	for _, c := range cases {
		if got := EvalBranch(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) = %v", c.op, c.a, c.b, got)
		}
	}
}

func TestMovzMovkBuildConstants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		v := r.Uint64()
		b := prog.NewBuilder("li")
		b.Li(1, v)
		b.Halt()
		m := runProgram(t, b.MustBuild(), 100)
		if m.Regs[1] != v {
			t.Fatalf("Li(%#x) produced %#x", v, m.Regs[1])
		}
	}
}

func TestCallReturn(t *testing.T) {
	b := prog.NewBuilder("call")
	b.Li(1, 5)
	b.Call("triple")
	b.Mov(3, 2)
	b.Halt()
	b.Label("triple")
	b.Add(2, 1, 1)
	b.Add(2, 2, 1)
	b.Ret()
	m := runProgram(t, b.MustBuild(), 100)
	if m.Regs[3] != 15 {
		t.Fatalf("triple(5) = %d", m.Regs[3])
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	b := prog.NewBuilder("r0")
	b.Addi(0, 0, 123) // write to r0 is discarded
	b.Mov(1, 0)
	b.Halt()
	m := runProgram(t, b.MustBuild(), 10)
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Fatal("r0 must stay zero")
	}
}

// TestRunTraceRecords checks a run's architectural trace, the records Step
// returns, for a load, an add and a store: their values, and that each
// record's NextPC is the next record's PC.
func TestRunTraceRecords(t *testing.T) {
	b := prog.NewBuilder("records")
	buf := b.Word64(42)
	b.La(1, buf)
	b.Ld(2, 0, 1)
	b.Addi(2, 2, 1)
	b.Sd(2, 0, 1)
	b.Halt()
	m := New(b.MustBuild())
	var recs []Record
	for m.Count < 100 && !m.Halted {
		r, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if !m.Halted {
		t.Fatal("program should end in halt")
	}
	var sawLoad, sawStore bool
	for i, r := range recs {
		if r.IsLoad {
			sawLoad = true
			if r.LoadVal != 42 {
				t.Errorf("load value %d", r.LoadVal)
			}
		}
		if r.IsStore {
			sawStore = true
			if r.StoreVal != 43 {
				t.Errorf("store value %d", r.StoreVal)
			}
		}
		if i > 0 && recs[i-1].NextPC != r.PC {
			t.Errorf("record discontinuity at %d", i)
		}
	}
	if !sawLoad || !sawStore {
		t.Error("records missing memory operations")
	}
}

// Property: ALU semantics match an independently coded evaluator on random
// operand values.
func TestALUSemanticsVsReference(t *testing.T) {
	type alu struct {
		op  isa.Op
		ref func(a, b uint64) uint64
	}
	ops := []alu{
		{isa.OpAdd, func(a, b uint64) uint64 { return a + b }},
		{isa.OpSub, func(a, b uint64) uint64 { return a - b }},
		{isa.OpAnd, func(a, b uint64) uint64 { return a & b }},
		{isa.OpOr, func(a, b uint64) uint64 { return a | b }},
		{isa.OpXor, func(a, b uint64) uint64 { return a ^ b }},
		{isa.OpSll, func(a, b uint64) uint64 { return a << (b & 63) }},
		{isa.OpSrl, func(a, b uint64) uint64 { return a >> (b & 63) }},
		{isa.OpSra, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
		{isa.OpMul, func(a, b uint64) uint64 { return a * b }},
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a, bv := r.Uint64(), r.Uint64()
		op := ops[r.Intn(len(ops))]
		b := prog.NewBuilder("alu")
		b.Li(1, a)
		b.Li(2, bv)
		b.Emit(isa.Inst{Op: op.op, Rd: 3, Rs1: 1, Rs2: 2})
		b.Halt()
		m := runProgram(t, b.MustBuild(), 100)
		if m.Regs[3] != op.ref(a, bv) {
			t.Fatalf("%v(%#x,%#x) = %#x, want %#x", op.op, a, bv, m.Regs[3], op.ref(a, bv))
		}
	}
}

package asm

import (
	"strings"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/isa"
)

const sumProgram = `
        .data
arr:    .word 1, 2, 3, 4, 5
out:    .word 0
        .text
        la   r1, arr
        li   r2, 5
        li   r3, 0
loop:   ld   r4, 0(r1)      ; element
        add  r3, r3, r4
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, r0, loop
        la   r5, out
        sd   r3, 0(r5)
        halt
`

func TestAssembleAndRun(t *testing.T) {
	img, err := Assemble("sum", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := arch.New(img)
	for !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Regs[3] != 15 {
		t.Fatalf("sum = %d, want 15", m.Regs[3])
	}
	out := m.Regs[5]
	if got := m.Mem.ReadUint(out, 8); got != 15 {
		t.Fatalf("stored sum = %d", got)
	}
}

func TestAllFormats(t *testing.T) {
	src := `
        .data
d:      .word 7
        .space 32
        .text
e:      add  r1, r2, r3
        addi r1, r2, -42
        movz r1, 65535, 3
        movk r1, 1, 0
        lb   r1, -4(r2)
        sh   r3, 6(r4)
        beq  r1, r2, e
        bgeu r1, r2, e
        jal  r31, e
        jalr r0, 8(r31)
        mov  r5, r6
        j    e
        call e
        ret
        nop
        halt
`
	img, err := Assemble("formats", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Code) != 16 {
		t.Fatalf("expected 16 instructions, got %d", len(img.Code))
	}
	wantOps := []isa.Op{
		isa.OpAdd, isa.OpAddi, isa.OpMovz, isa.OpMovk, isa.OpLb, isa.OpSh,
		isa.OpBeq, isa.OpBgeu, isa.OpJal, isa.OpJalr, isa.OpAddi, isa.OpJal,
		isa.OpJal, isa.OpJalr, isa.OpNop, isa.OpHalt,
	}
	for i, op := range wantOps {
		if img.Code[i].Op != op {
			t.Errorf("inst %d: %v, want %v", i, img.Code[i].Op, op)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2, r3",
		"add r1, r2",         // operand count
		"add r1, r2, r99",    // register range
		"addi r1, r2, 99999", // immediate range
		"ld r1, 0(q2)",       // bad base register
		"beq r1, r2",         // missing target
		"movz r1, 70000, 0",  // chunk range
		".data\nx: .space -1",
		".data\nx: .word zork",
		"j nowhere",
	}
	for _, src := range bad {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestCommentsAndLabelsOnOwnLine(t *testing.T) {
	src := `
# full-line comment
only_label:
        nop         ; trailing comment
        halt
`
	img, err := Assemble("comments", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Code) != 2 {
		t.Fatalf("got %d instructions", len(img.Code))
	}
}

func TestDisassembleRoundtrip(t *testing.T) {
	img, err := Assemble("sum", sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	dis := Disassemble(img)
	lines := strings.Split(strings.TrimSpace(dis), "\n")
	if len(lines) != len(img.Code) {
		t.Fatalf("disassembly has %d lines for %d instructions", len(lines), len(img.Code))
	}
	// Every line must carry the encoded word which decodes back to the
	// original instruction.
	for i, in := range img.Code {
		if !strings.Contains(lines[i], in.String()) {
			t.Errorf("line %d %q missing %q", i, lines[i], in.String())
		}
		w := in.Encode()
		back, err := isa.Decode(w)
		if err != nil || back != in {
			t.Errorf("inst %d does not round-trip", i)
		}
	}
}

func TestDataLabelAsImmediate(t *testing.T) {
	src := `
        .data
v:      .word 9
        .text
        li r1, v
        ld r2, 0(r1)
        halt
`
	img, err := Assemble("dl", src)
	if err != nil {
		t.Fatal(err)
	}
	m := arch.New(img)
	for !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Regs[2] != 9 {
		t.Fatalf("loaded %d", m.Regs[2])
	}
}

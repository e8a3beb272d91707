package arch

import (
	"strings"
	"testing"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
)

func TestStepAfterHalt(t *testing.T) {
	b := prog.NewBuilder("h")
	b.Halt()
	m := New(b.MustBuild())
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Fatal("step after halt must fail")
	}
}

func TestPCOutsideCode(t *testing.T) {
	b := prog.NewBuilder("jmp")
	b.Li(1, 0xF000)
	b.Jalr(0, 0, 1) // jump into the void
	m := New(b.MustBuild())
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		_, err = m.Step()
	}
	if err == nil || !strings.Contains(err.Error(), "outside code segment") {
		t.Fatalf("expected out-of-segment error, got %v", err)
	}
}

func TestMisalignedStoreFaults(t *testing.T) {
	b := prog.NewBuilder("mis")
	buf := b.Alloc(16, 8)
	b.La(1, buf)
	b.Addi(1, 1, 2)
	b.Sw(2, 0, 1)
	m := New(b.MustBuild())
	var err error
	for i := 0; i < 10 && err == nil && !m.Halted; i++ {
		_, err = m.Step()
	}
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("expected misalignment error, got %v", err)
	}
}

// TestRunTraceErrors checks that a run of the batch loop surfaces a
// misaligned load's fault instead of running past it.
func TestRunTraceErrors(t *testing.T) {
	b := prog.NewBuilder("bad")
	buf := b.Alloc(16, 8)
	b.La(1, buf)
	b.Addi(1, 1, 1)
	b.Ld(2, 0, 1)
	b.Halt()
	m := New(b.MustBuild())
	if err := m.Run(100, nil); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("Run returned %v, want the misaligned-load fault", err)
	}
}

func TestHaltRecordShape(t *testing.T) {
	b := prog.NewBuilder("h2")
	b.Nop()
	b.Halt()
	m := New(b.MustBuild())
	var last Record
	for !m.Halted {
		r, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	if !last.Halt || last.Inst.Op != isa.OpHalt {
		t.Fatalf("last record: %+v", last)
	}
	if last.NextPC != last.PC {
		t.Error("halt must park the PC")
	}
}

func TestExtendAndMask(t *testing.T) {
	if Extend(0x80, 1, true) != 0xFFFFFFFFFFFFFF80 {
		t.Error("sign extension of byte wrong")
	}
	if Extend(0x80, 1, false) != 0x80 {
		t.Error("zero extension of byte wrong")
	}
	if Extend(0xFFFF_FFFF_FFFF_FFFF, 8, true) != 0xFFFF_FFFF_FFFF_FFFF {
		t.Error("8-byte extension wrong")
	}
	if SizeMask(4) != 0xFFFFFFFF || SizeMask(8) != ^uint64(0) || SizeMask(1) != 0xFF {
		t.Error("size masks wrong")
	}
}

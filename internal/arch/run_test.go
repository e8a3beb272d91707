package arch

import (
	"fmt"
	"testing"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/mem"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/workload"
)

// runLockstep runs img from regs on two machines: one through Run in chunks
// of the sizes chunks lists (cycled; empty means one instruction a chunk),
// appending to a column sink when sink is set, and one stepped by refStep.
// At every chunk boundary it compares Run's error text with the reference's
// and the registers, PC, Count and Halted; at the end it compares every
// memory page and, with a sink, every column entry with the outputs of the
// reference's records. It stops at a fault, at HALT or after lockstepSteps
// instructions or chunks, and returns Run's last error.
func runLockstep(t *testing.T, img *prog.Image, regs [isa.NumRegs]uint64, chunks []byte, sink bool) error {
	t.Helper()
	ref, m := New(img), New(img)
	ref.Regs, m.Regs = regs, regs
	var cols *Columns
	if sink {
		cols = &Columns{}
	}
	var recs []Record
	var err error
	for i := 0; i < lockstepSteps && len(recs) < lockstepSteps && err == nil && !m.Halted; i++ {
		n := uint64(1)
		if len(chunks) > 0 {
			n = uint64(chunks[i%len(chunks)])
		}
		var wantErr error
		for j := uint64(0); j < n && !ref.Halted; j++ {
			rec, err := refStep(ref)
			if err != nil {
				wantErr = err
				break
			}
			recs = append(recs, rec)
		}
		pc := m.PC
		err = m.Run(n, cols)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("chunk %d of %d from %#x: Run error %v, reference %v", i, n, pc, err, wantErr)
		}
		if m.Regs != ref.Regs || m.PC != ref.PC || m.Count != ref.Count || m.Halted != ref.Halted {
			t.Fatalf("chunk %d of %d from %#x: state diverged\n Run: pc=%#x count=%d halted=%v regs=%#x\n ref: pc=%#x count=%d halted=%v regs=%#x",
				i, n, pc, m.PC, m.Count, m.Halted, m.Regs, ref.PC, ref.Count, ref.Halted, ref.Regs)
		}
	}
	if pn, ok := sameMemory(m.Mem, ref.Mem); !ok {
		t.Fatalf("memory page %#x: Run machine differs from the reference", pn)
	}
	if cols != nil {
		if len(cols.CodeIdx) != len(recs) || len(cols.Val) != len(recs) || len(cols.Addr) != len(recs) || len(cols.Taken) != (len(recs)+63)/64 {
			t.Fatalf("sink holds %d/%d/%d entries and %d taken words for %d instructions",
				len(cols.CodeIdx), len(cols.Val), len(cols.Addr), len(cols.Taken), len(recs))
		}
		for i := range recs {
			wv, wa, wt := recs[i].Outputs()
			pc := img.CodeBase + 4*uint64(cols.CodeIdx[i])
			if pc != recs[i].PC || cols.Val[i] != wv || cols.Addr[i] != wa || cols.TakenAt(i) != wt {
				t.Fatalf("entry %d: pc=%#x val=%#x addr=%#x taken=%v, reference record %#x %#x %#x %v",
					i, pc, cols.Val[i], cols.Addr[i], cols.TakenAt(i), recs[i].PC, wv, wa, wt)
			}
		}
	}
	return err
}

// sameMemory reports whether two memories hold the same bytes, an unmapped
// page reading as zeros, and otherwise the number of a page that differs.
func sameMemory(a, b *mem.Sparse) (uint64, bool) {
	pages := func(s *mem.Sparse) map[uint64]*[mem.PageSize]byte {
		m := map[uint64]*[mem.PageSize]byte{}
		s.ForEachPage(func(pn uint64, data *[mem.PageSize]byte) { m[pn] = data })
		return m
	}
	pa, pb := pages(a), pages(b)
	var zero [mem.PageSize]byte
	for _, pair := range [][2]map[uint64]*[mem.PageSize]byte{{pa, pb}, {pb, pa}} {
		for pn, x := range pair[0] {
			y := pair[1][pn]
			if y == nil {
				y = &zero
			}
			if *x != *y {
				return pn, false
			}
		}
	}
	return 0, true
}

// FuzzRunVsReference holds the batch loop, Run, to refStep on the inputs
// FuzzExecVsReference draws (code, registers, data), run in fuzzed chunk
// sizes with and without a column sink. The seeds are its workloads and
// fault programs, each under one mixed chunk pattern both ways.
func FuzzRunVsReference(f *testing.F) {
	const maxData = 512
	chunks := []byte{1, 7, 64, 0, 255, 3}
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
		for _, sink := range []bool{false, true} {
			f.Add(encodeCode(img), []byte(nil), data, chunks, sink)
		}
	}
	for _, p := range faultPrograms() {
		for _, sink := range []bool{false, true} {
			f.Add(encodeCode(p.img), []byte(nil), p.img.Data, chunks, sink)
		}
	}
	f.Fuzz(func(t *testing.T, code, regs, data, chunks []byte, sink bool) {
		if len(data) > maxData {
			data = data[:maxData]
		}
		if img := fuzzImage(code, data); img != nil {
			runLockstep(t, img, fuzzRegs(regs), chunks, sink)
		}
	})
}

// TestRunFaultsVsReference runs every fault program, and one per opcode no
// decoded word can reach, through Run in lockstep, with and without a sink:
// each ends in its fault with the reference's text, except that Run stops
// at HALT rather than stepping past it.
func TestRunFaultsVsReference(t *testing.T) {
	progs := faultPrograms()
	for _, op := range []isa.Op{isa.OpInvalid, 63} {
		img := &prog.Image{Name: "unimpl", CodeBase: prog.DefaultCodeBase,
			Code: []isa.Inst{{Op: isa.OpNop}, {Op: op, Rd: 1}}, Entry: prog.DefaultCodeBase}
		progs = append(progs, faultProgram{img, fmt.Sprintf("arch: unimplemented op %v at PC 0x10004", op)})
	}
	for _, p := range progs {
		want := p.fault
		if want == "arch: step after halt" {
			want = "<nil>"
		}
		for _, sink := range []bool{false, true} {
			err := runLockstep(t, p.img, fuzzRegs(nil), []byte{2, 5}, sink)
			if fmt.Sprint(err) != want {
				t.Errorf("%s (sink %v): run ended with %v, want %s", p.img.Name, sink, err, want)
			}
		}
	}
}

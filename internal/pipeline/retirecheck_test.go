package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/seqnum"
	"sfcmdt/internal/workload"
)

// TestRetireCheckMatchesRecord pins the column-reading retirement check to
// one built from the golden model's records. For every record
// arch.Machine.Step returns over each program's budget it builds the entry a
// correct retirement would carry; validateRetire, on a pipeline bound to the
// program's stream, and recordCheck, over the Step record, both accept it,
// and the column check accepts it without building a record. Then each
// compared field is perturbed in turn: where the field is compared for that
// instruction both reject the entry with identical error text, and where it
// is not both still accept.
func TestRetireCheckMatchesRecord(t *testing.T) {
	var imgs []*prog.Image
	for _, name := range []string{"gzip", "mcf", "bzip2"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		imgs = append(imgs, w.Build())
	}
	for seed := 0; seed < 3; seed++ {
		r := rand.New(rand.NewSource(int64(seed)*65537 + 1))
		imgs = append(imgs, randomProgram(r, fmt.Sprintf("rc%d", seed)))
	}
	imgs = append(imgs, callReturnProgram(t))

	type perturbation struct {
		field    string
		compared func(e *entry) bool
		apply    func(e *entry)
	}
	always := func(*entry) bool { return true }
	perturbations := []perturbation{
		{"pc", always, func(e *entry) { e.pc += 4 }},
		{"hasDest", always, func(e *entry) { e.hasDest = !e.hasDest }},
		{"destArch", func(e *entry) bool { return e.hasDest }, func(e *entry) { e.destArch ^= 1 }},
		{"result", func(e *entry) bool { return e.hasDest || e.isLoad }, func(e *entry) { e.result ^= 1 }},
		{"memAddr", func(e *entry) bool { return e.isLoad || e.isStore }, func(e *entry) { e.memAddr ^= 8 }},
		{"memVal", func(e *entry) bool { return e.isStore }, func(e *entry) { e.memVal ^= 1 }},
		{"actualNext", func(e *entry) bool { return e.isCond || e.isJump }, func(e *entry) { e.actualNext += 4 }},
	}

	seen := map[string]int{}
	const budget = 20_000
	for _, img := range imgs {
		cfg := schedEquivConfigs()[0]
		cfg.MaxInsts = budget
		p, err := NewWithTrace(cfg, img, streamView(t, img, budget))
		if err != nil {
			t.Fatal(err)
		}
		m := arch.New(img)
		for i := 0; m.Count < budget && !m.Halted; i++ {
			r, err := m.Step()
			if err != nil {
				t.Fatalf("%s: Step %d: %v", img.Name, i, err)
			}
			if i >= p.srcLen {
				t.Fatalf("%s: stream ends after %d records, Step runs on", img.Name, p.srcLen)
			}
			rec := &r
			e := retiringEntry(i, rec, &p.dec[(rec.PC-img.CodeBase)>>2])
			countKind(seen, rec)
			p.retired = i
			if !p.retireMatchesStream(&e) {
				t.Fatalf("%s #%d %s: column check rejects a correct retirement", img.Name, i, rec.Inst)
			}
			if err := p.validateRetire(&e); err != nil {
				t.Fatalf("%s: validateRetire: %v", img.Name, err)
			}
			if err := recordCheck(i, rec, &e); err != nil {
				t.Fatalf("%s: recordCheck: %v", img.Name, err)
			}
			for _, pt := range perturbations {
				bad := e
				pt.apply(&bad)
				viewErr, recErr := p.validateRetire(&bad), recordCheck(i, rec, &bad)
				if errText(viewErr) != errText(recErr) {
					t.Fatalf("%s #%d %s, %s perturbed: validateRetire %q, recordCheck %q",
						img.Name, i, rec.Inst, pt.field, errText(viewErr), errText(recErr))
				}
				if compared := pt.compared(&e); compared != (viewErr != nil) {
					t.Fatalf("%s #%d %s, %s perturbed: compared=%v but error %v",
						img.Name, i, rec.Inst, pt.field, compared, viewErr)
				}
			}
		}
	}
	for _, kind := range []string{"load", "store", "branch", "jal", "jalr", "halt"} {
		if seen[kind] == 0 {
			t.Errorf("no %s among the checked records (%v)", kind, seen)
		}
	}
}

// recordCheck is the retirement check built from golden record rec of
// instruction i: it compares each field validateRetire compares, in the same
// order, and words its error the same way.
func recordCheck(i int, rec *arch.Record, e *entry) error {
	if rec.PC != e.pc {
		return fmt.Errorf("retire #%d: pc %#x, trace has %#x", i, e.pc, rec.PC)
	}
	if rec.HasDest != e.hasDest || (e.hasDest && (rec.Dest != e.destArch || rec.DestVal != e.result)) {
		return fmt.Errorf("retire #%d pc=%#x %s: dest %v=%#x, trace has %v=%#x",
			i, e.pc, e.inst, e.destArch, e.result, rec.Dest, rec.DestVal)
	}
	if e.isLoad && (rec.Addr != e.memAddr || rec.LoadVal != e.result) {
		return fmt.Errorf("retire #%d pc=%#x %s: load [%#x]=%#x, trace has [%#x]=%#x",
			i, e.pc, e.inst, e.memAddr, e.result, rec.Addr, rec.LoadVal)
	}
	if e.isStore && (rec.Addr != e.memAddr || rec.StoreVal != e.memVal) {
		return fmt.Errorf("retire #%d pc=%#x %s: store [%#x]=%#x, trace has [%#x]=%#x",
			i, e.pc, e.inst, e.memAddr, e.memVal, rec.Addr, rec.StoreVal)
	}
	if (e.isCond || e.isJump) && rec.NextPC != e.actualNext {
		return fmt.Errorf("retire #%d pc=%#x %s: next PC %#x, trace has %#x",
			i, e.pc, e.inst, e.actualNext, rec.NextPC)
	}
	return nil
}

// retiringEntry builds the ROB entry a correct retirement of record i
// carries: the fields dispatch and execute fill in that validateRetire reads.
func retiringEntry(i int, rec *arch.Record, d *isa.DecodedInst) entry {
	e := entry{
		seq: seqnum.Seq(i + 1), pc: rec.PC, inst: rec.Inst, dec: d, traceIdx: i,
		isLoad: d.IsLoad, isStore: d.IsStore, isCond: d.IsBranch, isJump: d.IsJump,
		memAddr: rec.Addr, actualNext: rec.NextPC,
	}
	if d.HasDest {
		e.hasDest, e.destArch = true, d.DestReg
	}
	switch {
	case rec.IsLoad:
		e.result = rec.LoadVal
	case rec.IsStore:
		e.memVal = rec.StoreVal
	default:
		e.result = rec.DestVal
	}
	return e
}

func countKind(seen map[string]int, rec *arch.Record) {
	switch {
	case rec.IsLoad:
		seen["load"]++
	case rec.IsStore:
		seen["store"]++
	case rec.Inst.Op == isa.OpJal:
		seen["jal"]++
	case rec.Inst.Op == isa.OpJalr:
		seen["jalr"]++
	case rec.IsBranch:
		seen["branch"]++
	case rec.Halt:
		seen["halt"]++
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

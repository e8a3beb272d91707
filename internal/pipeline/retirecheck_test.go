package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/seqnum"
	"sfcmdt/internal/workload"
)

// TestRetireCheckMatchesRecord pins the column-reading retirement check to
// the record-building one. For every record of each program's stream it
// builds the entry a correct retirement would carry and has validateRetire
// judge it on a pipeline bound to a replay view (columns) and on one bound
// to the golden trace (records): both accept, and the view-bound one accepts
// without building a record. Then each compared field is perturbed in turn:
// where the field is compared for that instruction both pipelines reject the
// entry with identical error text, and where it is not both still accept.
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
		tr, err := arch.RunTrace(img, budget)
		if err != nil {
			t.Fatalf("%s: trace: %v", img.Name, err)
		}
		stream, err := replay.Materialize(img, budget)
		if err != nil {
			t.Fatalf("%s: stream: %v", img.Name, err)
		}
		byView, err := NewWithTrace(cfg, img, stream.All())
		if err != nil {
			t.Fatal(err)
		}
		byTrace, err := NewWithTrace(cfg, img, tr)
		if err != nil {
			t.Fatal(err)
		}
		if byView.stream == nil || byTrace.stream != nil {
			t.Fatalf("%s: view-bound pipeline must read columns, trace-bound one records", img.Name)
		}
		for i := range tr.Recs {
			rec := &tr.Recs[i]
			e := retiringEntry(i, rec, &tr.Dec[(rec.PC-img.CodeBase)>>2])
			countKind(seen, rec)
			byView.retired, byTrace.retired = i, i
			if !byView.retireMatchesStream(&e) {
				t.Fatalf("%s #%d %s: column check rejects a correct retirement", img.Name, i, rec.Inst)
			}
			if err := byView.validateRetire(&e); err != nil {
				t.Fatalf("%s: view-bound: %v", img.Name, err)
			}
			if err := byTrace.validateRetire(&e); err != nil {
				t.Fatalf("%s: trace-bound: %v", img.Name, err)
			}
			for _, pt := range perturbations {
				bad := e
				pt.apply(&bad)
				viewErr, traceErr := byView.validateRetire(&bad), byTrace.validateRetire(&bad)
				if errText(viewErr) != errText(traceErr) {
					t.Fatalf("%s #%d %s, %s perturbed: view-bound %q, trace-bound %q",
						img.Name, i, rec.Inst, pt.field, errText(viewErr), errText(traceErr))
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

package replay

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/asm"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/workload"
)

// testImages returns a coverage set: a few synthetic workloads plus an
// assembled program that exercises JAL/JALR (call/ret, with and without a
// live link register) and HALT, the control-flow cases the columnar NextPC
// derivation must reconstruct.
func testImages(t *testing.T) []*prog.Image {
	t.Helper()
	var imgs []*prog.Image
	for _, name := range []string{"gzip", "mcf", "swim"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		imgs = append(imgs, w.Build())
	}
	src := `
        .text
start:  addi r1, r0, 50
        addi r2, r0, 0
loop:   call fn
        addi r1, r1, -1
        bne  r1, r0, loop
        jal  r0, out
        addi r2, r2, 99
out:    halt
fn:     add  r2, r2, r1
        jalr r28, 0(r31)
`
	img, err := asm.Assemble("callret", src)
	if err != nil {
		t.Fatalf("assembling call/ret program: %v", err)
	}
	return append(imgs, img)
}

// stepRecords steps m up to n further instructions with arch.Machine.Step,
// the golden model, stopping at HALT, and returns their records.
func stepRecords(t *testing.T, m *arch.Machine, n uint64) []arch.Record {
	t.Helper()
	var recs []arch.Record
	for end := m.Count + n; m.Count < end && !m.Halted; {
		r, err := m.Step()
		if err != nil {
			t.Fatalf("%s: Step after %d insts: %v", m.Img.Name, m.Count, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// traceStream converts the golden model's architectural trace of img — the
// records Step returns over at most n instructions — into a bound stream,
// appending each record's Exec outputs (recovered by inverting
// arch.RecordOf) to the columns. It is the slow path, one record at a time,
// that the tests hold Materialize's batch loop to.
func traceStream(t *testing.T, img *prog.Image, n uint64) (*Stream, []arch.Record) {
	t.Helper()
	m := arch.New(img)
	recs := stepRecords(t, m, n)
	s := &Stream{Workload: img.Name, CodeBase: img.CodeBase, Halted: m.Halted}
	for i := range recs {
		r := &recs[i]
		val := r.DestVal
		switch {
		case r.IsLoad:
			val = r.LoadVal
		case r.IsStore:
			val = r.StoreVal
		}
		addr := r.Addr
		if r.Inst.Op == isa.OpJalr {
			addr = r.NextPC
		}
		s.Append(uint32((r.PC-img.CodeBase)/4), val, addr, r.Taken)
	}
	if err := s.Bind(img, nil); err != nil {
		t.Fatalf("%s: binding the trace's stream: %v", img.Name, err)
	}
	return s, recs
}

// TestFromTraceRoundTrip pins the lossless property the whole substrate
// rests on: columns built from the golden model's trace rebuild it record
// for record through RecordAt, and the point accessors fetch reads agree
// with the records.
func TestFromTraceRoundTrip(t *testing.T) {
	for _, img := range testImages(t) {
		s, recs := traceStream(t, img, 20_000)
		if s.Len() != len(recs) {
			t.Fatalf("%s: stream len=%d, trace len=%d", img.Name, s.Len(), len(recs))
		}
		for i := range recs {
			if got := s.RecordAt(i); got != recs[i] {
				t.Fatalf("%s: record %d:\n stream: %+v\n Step:   %+v", img.Name, i, got, recs[i])
			}
			if got, want := s.PCAt(i), recs[i].PC; got != want {
				t.Fatalf("%s: PCAt(%d)=%#x want %#x", img.Name, i, got, want)
			}
			if got, want := s.TakenAt(i), recs[i].Taken; got != want {
				t.Fatalf("%s: TakenAt(%d)=%v want %v", img.Name, i, got, want)
			}
			if got, want := s.NextPCAt(i), recs[i].NextPC; got != want {
				t.Fatalf("%s: NextPCAt(%d)=%#x want %#x", img.Name, i, got, want)
			}
		}
	}
}

// TestMaterializeMatchesFromTrace pins the direct materializing pass, the
// batch loop arch.Machine.Run, to the conversion of the golden model's
// trace: identical columns and halt flag either way.
func TestMaterializeMatchesFromTrace(t *testing.T) {
	for _, img := range testImages(t) {
		want, _ := traceStream(t, img, 20_000)
		got, err := Materialize(img, 20_000)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", img.Name, err)
		}
		assertStreamsEqual(t, img.Name, got, want)
	}
}

func assertStreamsEqual(t *testing.T, name string, got, want *Stream) {
	t.Helper()
	if got.Workload != want.Workload || got.CodeBase != want.CodeBase || got.Halted != want.Halted {
		t.Fatalf("%s: header differs: got {%s %#x %v} want {%s %#x %v}",
			name, got.Workload, got.CodeBase, got.Halted, want.Workload, want.CodeBase, want.Halted)
	}
	if !reflect.DeepEqual(got.CodeIdx, want.CodeIdx) ||
		!reflect.DeepEqual(got.Val, want.Val) ||
		!reflect.DeepEqual(got.Addr, want.Addr) ||
		!reflect.DeepEqual(got.Taken, want.Taken) ||
		!reflect.DeepEqual(got.Anchors, want.Anchors) {
		t.Fatalf("%s: columns differ", name)
	}
}

// TestViewPrefix pins the trace-once/time-many property: a long stream's
// prefix view answers identically to a stream traced at exactly that budget.
func TestViewPrefix(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	long, err := Materialize(img, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Materialize(img, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	v := long.View(5_000)
	if v.Len() != short.Len() {
		t.Fatalf("prefix view len %d, short stream len %d", v.Len(), short.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v.Stream().RecordAt(i) != short.RecordAt(i) {
			t.Fatalf("record %d differs between prefix view and short stream", i)
		}
	}
	if all := long.All(); all.Len() != long.Len() {
		t.Fatalf("All view len %d, stream len %d", all.Len(), long.Len())
	}
	if v := long.View(1 << 40); v.Len() != long.Len() {
		t.Fatalf("over-span view len %d, stream len %d", v.Len(), long.Len())
	}
}

// TestMaterializeFromContinues pins the warm-start path used by sampled
// preparation: materializing an interval from an advanced machine equals the
// records Step returns over the same span of a cold run.
func TestMaterializeFromContinues(t *testing.T) {
	w, _ := workload.Get("mcf")
	img := w.Build()
	ref := arch.New(img)
	stepRecords(t, ref, 2_000)
	want := stepRecords(t, ref, 1_000)
	m := arch.New(img)
	if err := m.Run(2_000, nil); err != nil {
		t.Fatal(err)
	}
	s, err := MaterializeFrom(m, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1_000 {
		t.Fatalf("interval stream has %d records, want 1000", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got := s.RecordAt(i); got != want[i] {
			t.Fatalf("interval record %d:\n got:  %+v\n want: %+v", i, got, want[i])
		}
	}
}

// TestBindRejectsMismatch pins the fail-closed invalidation rules: a stream
// cannot bind to a different program, a moved code base, or a code segment
// it indexes past.
func TestBindRejectsMismatch(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	s, err := Materialize(img, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	other := *img
	other.Name = "notgzip"
	if err := s.Bind(&other, nil); err == nil {
		t.Fatal("bind against renamed image succeeded")
	}
	moved := *img
	moved.CodeBase += 4096
	moved.Name = img.Name
	if err := s.Bind(&moved, nil); err == nil {
		t.Fatal("bind against moved code base succeeded")
	}
	shrunk := *img
	shrunk.Code = shrunk.Code[:1]
	if err := s.Bind(&shrunk, nil); err == nil {
		t.Fatal("bind against shrunken code segment succeeded")
	}
	if err := s.Bind(img, nil); err != nil {
		t.Fatalf("bind against own image failed: %v", err)
	}
}

func TestStreamBytesPerInst(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	s, err := Materialize(img, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(len(s.Encode())) / float64(s.Len())
	// 4 (code idx) + 8 (val) + 8 (addr) + 1/8 (taken) + header ≈ 20.2; the
	// bound guards against accidentally serializing the predecode table or
	// fattening a column.
	if perInst > 24 {
		t.Fatalf("encoded stream is %.1f bytes/inst, expected ~20", perInst)
	}
	fmt.Printf("encoded stream: %.2f bytes/inst over %d insts\n", perInst, s.Len())

	// Resident cost: MaterializeFrom on a warm machine sizes its four
	// columns once from n, so it allocates the same few times whatever n
	// is, and holds 4+8+8+1/8 = 20.125 bytes per instruction plus a fixed
	// overhead (the Stream header, the predecode table, and each column's
	// rounding up to a whole 8 KiB page). The collector is off while a call
	// is measured: a GC cycle that the 200k call's columns trigger wakes
	// runtime work (the unique-map cleanup, mark-termination sudogs) that
	// allocates inside the window, and whether the pacer starts that cycle
	// depends on how busy the host is. Each figure is the minimum over three
	// calls: the runtime's own occasional allocations (timers, cleanup left
	// over from the runtime.GC before the window) only ever add to a count.
	w, _ = workload.Get("mcf")
	img = w.Build()
	materialize := func(n uint64) (mallocs, bytes uint64) {
		mallocs, bytes = math.MaxUint64, math.MaxUint64
		for rep := 0; rep < 3; rep++ {
			m := arch.New(img)
			if _, err := MaterializeFrom(m, 300_000); err != nil { // map every page the span touches
				t.Fatal(err)
			}
			runtime.GC()
			gcPercent := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := MaterializeFrom(m, n)
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gcPercent)
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() != int(n) {
				t.Fatalf("materialized %d insts, want %d", s.Len(), n)
			}
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return mallocs, bytes
	}
	var mallocs []uint64
	for _, n := range []uint64{50_000, 200_000} {
		count, bytes := materialize(n)
		if limit := n*81/4 + 32<<10; bytes > limit {
			t.Errorf("MaterializeFrom(%d) allocated %d B (%.2f B/inst), want at most %d", n, bytes, float64(bytes)/float64(n), limit)
		}
		mallocs = append(mallocs, count)
	}
	if mallocs[0] != mallocs[1] {
		t.Errorf("MaterializeFrom allocated %d times for 50k insts and %d for 200k, want a per-call constant", mallocs[0], mallocs[1])
	}
}

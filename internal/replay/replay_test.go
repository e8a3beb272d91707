package replay

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/asm"
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

// TestFromTraceRoundTrip pins the lossless property the whole substrate
// rests on: columns → ExpandTrace reproduces the golden trace record for
// record, and the point accessors agree with the records.
func TestFromTraceRoundTrip(t *testing.T) {
	for _, img := range testImages(t) {
		tr, err := arch.RunTrace(img, 20_000)
		if err != nil {
			t.Fatalf("%s: %v", img.Name, err)
		}
		s, err := FromTrace(img, tr)
		if err != nil {
			t.Fatalf("%s: FromTrace: %v", img.Name, err)
		}
		if s.Len() != tr.Len() || s.Halted != tr.Halted {
			t.Fatalf("%s: stream len=%d halted=%v, trace len=%d halted=%v",
				img.Name, s.Len(), s.Halted, tr.Len(), tr.Halted)
		}
		back := s.ExpandTrace()
		for i := range tr.Recs {
			if back.Recs[i] != tr.Recs[i] {
				t.Fatalf("%s: record %d:\n stream: %+v\n trace:  %+v", img.Name, i, back.Recs[i], tr.Recs[i])
			}
			if got, want := s.PCAt(i), tr.Recs[i].PC; got != want {
				t.Fatalf("%s: PCAt(%d)=%#x want %#x", img.Name, i, got, want)
			}
			if got, want := s.TakenAt(i), tr.Recs[i].Taken; got != want {
				t.Fatalf("%s: TakenAt(%d)=%v want %v", img.Name, i, got, want)
			}
			if got, want := s.NextPCAt(i), tr.Recs[i].NextPC; got != want {
				t.Fatalf("%s: NextPCAt(%d)=%#x want %#x", img.Name, i, got, want)
			}
		}
	}
}

// TestMaterializeMatchesFromTrace pins the direct (trace-free) materializing
// pass to the conversion path: identical columns either way.
func TestMaterializeMatchesFromTrace(t *testing.T) {
	for _, img := range testImages(t) {
		tr, err := arch.RunTrace(img, 10_000)
		if err != nil {
			t.Fatalf("%s: %v", img.Name, err)
		}
		want, err := FromTrace(img, tr)
		if err != nil {
			t.Fatalf("%s: %v", img.Name, err)
		}
		got, err := Materialize(img, 10_000)
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
		if v.RecordAt(i) != short.RecordAt(i) {
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
// corresponding slice of a cold trace.
func TestMaterializeFromContinues(t *testing.T) {
	w, _ := workload.Get("mcf")
	img := w.Build()
	full, err := arch.RunTrace(img, 6_000)
	if err != nil {
		t.Fatal(err)
	}
	m := arch.New(img)
	for m.Count < 2_000 && !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := MaterializeFrom(m, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1_000 {
		t.Fatalf("interval stream has %d records, want 1000", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got, want := s.RecordAt(i), full.Recs[2_000+i]; got != want {
			t.Fatalf("interval record %d:\n got:  %+v\n want: %+v", i, got, want)
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
	// rounding up to a whole 8 KiB page). Each figure is the minimum over
	// three calls: the runtime's own occasional allocations (GC workers,
	// timers) only ever add to a count.
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
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := MaterializeFrom(m, n)
			runtime.ReadMemStats(&after)
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

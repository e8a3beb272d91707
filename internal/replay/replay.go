// Package replay factors the functional half of a detailed simulation out
// into a compact, reusable reference stream: one architectural pass per
// (workload, args, instruction span) produces a columnar record of the
// correct-path dynamic instruction stream — static code indices, a merged
// value column (load results, store data, or destination values), effective
// addresses (doubling as indirect-jump targets), branch outcomes as a bitset,
// and per-interval snapshot anchors. The detailed pipeline then *replays*
// the stream instead of running the golden model in lockstep: every answer
// the pipeline asks of the stream (fetch-time branch outcomes and next-PCs,
// retire-time validation records) is reconstructed bit-identically to the
// arch.Trace it was derived from, so timing results are unchanged while the
// functional pass is paid once per workload instead of once per grid point.
//
// The columnar form is ~20 bytes per instruction against arch.Record's ~96,
// and it serializes (see codec.go) into the content-addressed blob stores
// internal/snapshot uses too (store.go), so sweeps share streams in process
// via Cache (cache.go) and across processes via an on-disk store.
package replay

import (
	"fmt"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
)

// Stream is the columnar reference stream of one correct-path execution.
// Column i describes the i-th retired instruction:
//
//   - CodeIdx[i] is its static code index (PC = CodeBase + 4*CodeIdx[i]),
//     which keys the shared predecode table for all static properties
//     (opcode, registers, memory class and width, branch class).
//   - Val[i] is the one dynamic value the instruction produced: the
//     extended load result for loads (equal to the destination value when
//     the load has a destination), the masked store data for stores, and
//     the destination value otherwise (zero when there is no destination).
//   - Addr[i] is the effective address for memory operations; for JALR —
//     which has no memory operand but an unpredictable target — it holds
//     the jump target, so the link value can live in Val.
//   - Bit i of Taken is the branch outcome (set for taken conditional
//     branches and always for jumps, mirroring arch.Record.Taken).
//
// Everything else arch.Record carries is static and reconstructed from the
// predecode table bound by Bind; RecordAt proves the reconstruction exact.
type Stream struct {
	Workload string // image name, pinned so a stream can't replay the wrong program
	CodeBase uint64
	Halted   bool // the program executed HALT within the span

	arch.Columns // CodeIdx, Val, Addr and the Taken bitset, as arch.Machine.Run appends them

	// Anchors lists the retired-instruction offsets at which architectural
	// checkpoints were captured while this stream was materialized (the
	// snapshot-store keys a sampled sweep can restore from). Empty for
	// whole-program streams materialized without a sampling plan.
	Anchors []uint64

	// dec is the shared predecode table for the bound image; nil until
	// Bind (a decoded stream arrives unbound — the codec stores only
	// dynamic columns).
	dec []isa.DecodedInst
}

// Len returns the number of records in the stream.
func (s *Stream) Len() int { return len(s.CodeIdx) }

// Bind attaches (and validates the stream against) the program image the
// stream was materialized from: the name and code base must match, and every
// code index must fall inside the code segment. dec, when non-nil, must be
// the image's predecode table (isa.Predecode(img.Code)) and is shared rather
// than rebuilt — the harness passes each workload's existing table.
func (s *Stream) Bind(img *prog.Image, dec []isa.DecodedInst) error {
	if img.Name != s.Workload {
		return fmt.Errorf("replay: stream for workload %q bound against image %q", s.Workload, img.Name)
	}
	if img.CodeBase != s.CodeBase {
		return fmt.Errorf("replay: stream code base %#x, image has %#x", s.CodeBase, img.CodeBase)
	}
	for i, idx := range s.CodeIdx {
		if int(idx) >= len(img.Code) {
			return fmt.Errorf("replay: record %d: code index %d outside %d-instruction segment", i, idx, len(img.Code))
		}
	}
	if len(dec) != len(img.Code) {
		dec = isa.Predecode(img.Code)
	}
	s.dec = dec
	return nil
}

// push appends one instruction's Exec outputs to the columns.
func (s *Stream) push(pc, val, addr uint64, taken bool) error {
	if pc < s.CodeBase || (pc-s.CodeBase)%4 != 0 {
		return fmt.Errorf("replay: record PC %#x not in code segment at %#x", pc, s.CodeBase)
	}
	idx := (pc - s.CodeBase) >> 2
	if idx > 1<<32-1 {
		return fmt.Errorf("replay: code index %d overflows the stream's 32-bit column", idx)
	}
	s.Append(uint32(idx), val, addr, taken)
	return nil
}

// FromTrace converts a golden trace into a stream, sharing the trace's
// predecode table. The conversion is lossless for every field the pipeline
// consumes; ExpandTrace is its inverse and the package tests pin the
// round trip record-for-record.
func FromTrace(img *prog.Image, t *arch.Trace) (*Stream, error) {
	s := newStream(img, t.Len())
	for i := range t.Recs {
		val, addr, taken := t.Recs[i].Outputs()
		if err := s.push(t.Recs[i].PC, val, addr, taken); err != nil {
			return nil, err
		}
	}
	s.Halted = t.Halted
	if err := s.Bind(img, t.Dec); err != nil {
		return nil, err
	}
	return s, nil
}

func newStream(img *prog.Image, capHint int) *Stream {
	return &Stream{
		Workload: img.Name,
		CodeBase: img.CodeBase,
		Columns: arch.Columns{
			CodeIdx: make([]uint32, 0, capHint),
			Val:     make([]uint64, 0, capHint),
			Addr:    make([]uint64, 0, capHint),
			Taken:   make([]uint64, 0, (capHint+63)/64),
		},
	}
}

// Materialize runs the functional model for at most span instructions and
// returns the stream directly, arch.Machine.Run appending its outputs to the
// columns without building a trace or a per-instruction record — this is
// the one functional pass a sweep pays per workload.
func Materialize(img *prog.Image, span uint64) (*Stream, error) {
	m := arch.New(img)
	s, err := materializeFrom(m, span, img)
	if err != nil {
		return nil, err
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("replay: %s: empty stream", img.Name)
	}
	return s, nil
}

// MaterializeFrom continues a warm machine (restored from a checkpoint or
// advanced by fast-forward) for up to n further instructions, the streaming
// counterpart of arch.RunTraceFrom. An empty stream is legitimate here: a
// halted machine yields zero records.
func MaterializeFrom(m *arch.Machine, n uint64) (*Stream, error) {
	return materializeFrom(m, n, m.Img)
}

func materializeFrom(m *arch.Machine, n uint64, img *prog.Image) (*Stream, error) {
	s := newStream(img, int(min(n, 1<<20)))
	if err := m.Run(n, &s.Columns); err != nil {
		return nil, fmt.Errorf("replay: %s: after %d insts: %w", img.Name, m.Count, err)
	}
	s.Halted = m.Halted
	if err := s.Bind(img, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// PCAt returns record i's program counter.
func (s *Stream) PCAt(i int) uint64 { return s.CodeBase + uint64(s.CodeIdx[i])*4 }

// NextPCAt derives record i's architectural next PC from the columns with
// arch.NextPC, the rule RecordAt's reconstruction uses.
func (s *Stream) NextPCAt(i int) uint64 {
	return arch.NextPC(&s.dec[s.CodeIdx[i]], s.PCAt(i), s.Addr[i], s.TakenAt(i))
}

// RecordAt reconstructs record i as the golden model produced it, with
// arch.RecordOf over the columns — the reconstruction arch.Machine.Step
// itself returns, so replay-mode retirement validation is precisely as
// strong as lockstep validation against the original trace.
func (s *Stream) RecordAt(i int) arch.Record {
	return arch.RecordOf(&s.dec[s.CodeIdx[i]], s.PCAt(i), s.Val[i], s.Addr[i], s.TakenAt(i))
}

// Decoded returns the bound predecode table (nil before Bind).
func (s *Stream) Decoded() []isa.DecodedInst { return s.dec }

// ExpandTrace reconstructs the full AoS golden trace from the stream — the
// inverse of FromTrace, used by the equivalence tests and by tools that want
// record-level output from a stored stream.
func (s *Stream) ExpandTrace() *arch.Trace {
	t := &arch.Trace{
		Recs:   make([]arch.Record, s.Len()),
		Halted: s.Halted,
		Dec:    s.dec,
	}
	for i := range t.Recs {
		t.Recs[i] = s.RecordAt(i)
	}
	return t
}

// View returns a prefix view of at most span records — the ReplaySource a
// pipeline bounded by a span-instruction budget consumes. One stream
// materialized at the largest budget serves every smaller budget: a
// deterministic program's first n records do not depend on how far the
// trace ran past them.
func (s *Stream) View(span uint64) *View {
	n := s.Len()
	if span < uint64(n) {
		n = int(span)
	}
	return &View{s: s, n: n}
}

// All returns the whole-stream view.
func (s *Stream) All() *View { return &View{s: s, n: s.Len()} }

// View is a bounded prefix of a Stream; it implements pipeline.ReplaySource.
// Views are cheap values — every config of a sweep gets its own over the one
// shared stream.
type View struct {
	s *Stream
	n int
}

// Stream returns the underlying stream.
func (v *View) Stream() *Stream { return v.s }

// Len returns the number of records in the view.
func (v *View) Len() int { return v.n }

// PCAt returns record i's program counter.
func (v *View) PCAt(i int) uint64 { return v.s.PCAt(i) }

// TakenAt returns record i's branch outcome.
func (v *View) TakenAt(i int) bool { return v.s.TakenAt(i) }

// NextPCAt returns record i's architectural next PC.
func (v *View) NextPCAt(i int) uint64 { return v.s.NextPCAt(i) }

// RecordAt reconstructs record i's full retirement record.
func (v *View) RecordAt(i int) arch.Record { return v.s.RecordAt(i) }

// Decoded returns the shared predecode table.
func (v *View) Decoded() []isa.DecodedInst { return v.s.Decoded() }

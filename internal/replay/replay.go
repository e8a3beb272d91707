// Package replay factors the functional half of a detailed simulation out
// into a compact, reusable reference stream: one architectural pass per
// (workload, args, instruction span) produces a columnar record of the
// correct-path dynamic instruction stream — static code indices, a merged
// value column (load results, store data, or destination values), effective
// addresses (doubling as indirect-jump targets), branch outcomes as a bitset,
// and per-interval snapshot anchors. The detailed pipeline then *replays*
// the stream instead of running the golden model in lockstep: fetch reads
// its branch outcomes and next PCs from the columns, and retirement checks
// each instruction against them, so the functional pass is paid once per
// workload instead of once per grid point. Stream.RecordAt rebuilds any
// instruction's retirement record exactly as arch.Machine.Step returns it;
// the package tests hold every index to Step.
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

// Materialize runs the functional model for at most span instructions and
// returns the stream, arch.Machine.Run appending its outputs to the columns
// without building a per-instruction record — this is the one functional
// pass a sweep pays per workload.
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
// advanced by fast-forward) for up to n further instructions. An empty
// stream is legitimate here: a halted machine yields zero records.
func MaterializeFrom(m *arch.Machine, n uint64) (*Stream, error) {
	return materializeFrom(m, n, m.Img)
}

func materializeFrom(m *arch.Machine, n uint64, img *prog.Image) (*Stream, error) {
	c := int(min(n, 1<<20))
	s := &Stream{
		Workload: img.Name,
		CodeBase: img.CodeBase,
		Columns: arch.Columns{
			CodeIdx: make([]uint32, 0, c),
			Val:     make([]uint64, 0, c),
			Addr:    make([]uint64, 0, c),
			Taken:   make([]uint64, 0, (c+63)/64),
		},
	}
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
// itself returns. The pipeline words a failed retirement check from it.
func (s *Stream) RecordAt(i int) arch.Record {
	return arch.RecordOf(&s.dec[s.CodeIdx[i]], s.PCAt(i), s.Val[i], s.Addr[i], s.TakenAt(i))
}

// Decoded returns the bound predecode table (nil before Bind).
func (s *Stream) Decoded() []isa.DecodedInst { return s.dec }

// View returns a prefix view of at most span records — the reference a
// pipeline bounded by a span-instruction budget consumes. One stream
// materialized at the largest budget serves every smaller budget: a
// deterministic program's first n records do not depend on how far the
// stream ran past them.
func (s *Stream) View(span uint64) *View {
	n := s.Len()
	if span < uint64(n) {
		n = int(span)
	}
	return &View{s: s, n: n}
}

// All returns the whole-stream view.
func (s *Stream) All() *View { return &View{s: s, n: s.Len()} }

// View is a bounded prefix of a Stream, the only reference stream a
// pipeline binds. Views are cheap values — every config of a sweep gets its
// own over the one shared stream.
type View struct {
	s *Stream
	n int
}

// Stream returns the underlying stream.
func (v *View) Stream() *Stream { return v.s }

// Len returns the number of records in the view.
func (v *View) Len() int { return v.n }

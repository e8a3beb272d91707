package core

import (
	"fmt"

	"sfcmdt/internal/seqnum"
)

// ValueReplay implements the related-work baseline of Cain & Lipasti
// ("Memory ordering: a value-based approach", ISCA-31), which the paper
// discusses in §4: the LSQ with its associative load-queue search removed.
// Loads forward from the store queue at execution exactly as in the LSQ,
// and the load queue only tracks them in order, but memory disambiguation
// is deferred to retirement — every load re-reads the cache when it retires
// (all older stores have committed by then) and compares against the value
// it obtained at execution. A mismatch is a memory ordering violation
// detected at the very end of the pipeline, which is exactly why the paper
// argues that "disambiguating memory references at completion is
// preferable" for large instruction windows: the recovery penalty grows
// with the window.
type ValueReplay struct {
	// LSQ keeps the entries, dispatch, forwarding, squash and store
	// retirement. Its Violations count retirement-time mismatches.
	LSQ

	ReplayedLoads uint64 // loads re-executed at retirement
}

// NewValueReplay builds the subsystem.
func NewValueReplay(cfg LSQConfig) *ValueReplay {
	return &ValueReplay{LSQ: *NewLSQ(cfg)}
}

// ExecuteStore records the store; no load-queue search exists to perform.
func (q *ValueReplay) ExecuteStore(seq seqnum.Seq, addr uint64, size int, value uint64) error {
	_, err := q.recordStore(seq, addr, size, value)
	return err
}

// RetireLoad performs the retirement-time replay: re-read committed memory
// (every older store has retired) and compare with the execution-time
// value. It returns a violation whose flush point is the load itself when
// the values disagree — the maximally late detection this scheme implies.
func (q *ValueReplay) RetireLoad(seq seqnum.Seq, memRead MemReader) (*Violation, error) {
	if len(q.loads) == 0 || q.loads[0].seq != seq {
		return nil, fmt.Errorf("core: ValueReplay RetireLoad %d not at head", seq)
	}
	ld := q.loads[0]
	// Shift in place (see LSQ.RetireLoad): reslicing forward would force an
	// allocating append every capacity retirements.
	q.loads = q.loads[:copy(q.loads, q.loads[1:])]
	q.ReplayedLoads++
	now := memRead(ld.addr, ld.size)
	if now == ld.value {
		return nil, nil
	}
	q.Violations++
	return &Violation{
		Kind:         TrueViolation,
		ProducerPC:   0, // the offending store is unknown by construction
		ProducerSeq:  seqnum.None,
		ConsumerPC:   ld.pc,
		ConsumerSeq:  ld.seq,
		FlushFromSeq: ld.seq,
	}, nil
}

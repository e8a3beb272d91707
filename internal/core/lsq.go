package core

import (
	"fmt"

	"sfcmdt/internal/seqnum"
)

// LSQConfig sizes the baseline load/store queue.
type LSQConfig struct {
	LoadEntries  int
	StoreEntries int
}

// Validate checks the configuration.
func (c LSQConfig) Validate() error {
	if c.LoadEntries <= 0 || c.StoreEntries <= 0 {
		return fmt.Errorf("core: LSQ sizes %+v not positive", c)
	}
	return nil
}

type lqEntry struct {
	seq      seqnum.Seq
	pc       uint64
	executed bool
	addr     uint64
	size     int
	value    uint64 // value the load obtained
}

type sqEntry struct {
	seq      seqnum.Seq
	pc       uint64
	executed bool
	addr     uint64
	size     int
	value    uint64
}

// LSQ models the paper's idealized baseline load/store queue: infinite
// ports, infinite search bandwidth, single-cycle bypass, byte-accurate
// age-prioritized forwarding, and value-based violation detection that never
// falsely flags silent stores (§2.1, §3).
//
// Entries are kept in program order (dispatch order); squashes remove a
// suffix.
type LSQ struct {
	cfg    LSQConfig
	loads  []lqEntry
	stores []sqEntry

	// Stats.
	LoadSearches   uint64
	StoreSearches  uint64
	Violations     uint64 // true-dependence violations detected
	SilentSquelch  uint64 // would-be violations squelched by value equality
	DispatchStalls uint64
	// EntriesSearched counts queue entries examined by associative
	// searches — the simulator's proxy for the LSQ's CAM activity and
	// hence its dynamic power (paper §4).
	EntriesSearched uint64
}

// NewLSQ builds an LSQ.
func NewLSQ(cfg LSQConfig) *LSQ {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &LSQ{cfg: cfg}
}

// Config returns the LSQ configuration.
func (q *LSQ) Config() LSQConfig { return q.cfg }

// Loads returns the number of in-flight loads.
func (q *LSQ) Loads() int { return len(q.loads) }

// Stores returns the number of in-flight stores.
func (q *LSQ) Stores() int { return len(q.stores) }

// DispatchLoad allocates a load queue slot; false means the queue is full.
func (q *LSQ) DispatchLoad(seq seqnum.Seq, pc uint64) bool {
	if len(q.loads) >= q.cfg.LoadEntries {
		q.DispatchStalls++
		return false
	}
	q.loads = append(q.loads, lqEntry{seq: seq, pc: pc})
	return true
}

// DispatchStore allocates a store queue slot; false means the queue is full.
func (q *LSQ) DispatchStore(seq seqnum.Seq, pc uint64) bool {
	if len(q.stores) >= q.cfg.StoreEntries {
		q.DispatchStalls++
		return false
	}
	q.stores = append(q.stores, sqEntry{seq: seq, pc: pc})
	return true
}

// MemReader supplies committed memory (retired state) for gather
// operations: size bytes at addr as a little-endian word, with the same
// wrap semantics as mem.Sparse.ReadUint.
type MemReader func(addr uint64, size int) uint64

// gatherStores assembles the value a load of (addr, size) would observe
// right now: committed memory overlaid, in ascending age, with every
// executed store older than the load. Stores are in program order, so
// overlaying oldest to youngest makes the youngest older store win each
// byte (age-prioritized forwarding). It also reports whether every byte
// came from the store queue (full forward) and whether any did (partial).
func gatherStores(stores []sqEntry, loadSeq seqnum.Seq, addr uint64, size int, memRead MemReader) (val uint64, allFromSQ, anyFromSQ bool) {
	val = memRead(addr, size)
	var sqMask uint64
	for si := range stores {
		st := &stores[si]
		if !st.executed || !seqnum.Before(st.seq, loadSeq) {
			continue
		}
		lo, hi := maxU64(st.addr, addr), minU64(st.addr+uint64(st.size), addr+uint64(size))
		if lo >= hi {
			continue // no overlap (hi-lo would underflow)
		}
		m := byteRangeMask(lo-addr, hi-lo)
		val = val&^m | ((st.value>>(8*(lo-st.addr)))<<(8*(lo-addr)))&m
		sqMask |= m
	}
	full := byteRangeMask(0, uint64(size))
	return val, sqMask == full, sqMask != 0
}

func (q *LSQ) gather(loadSeq seqnum.Seq, addr uint64, size int, memRead MemReader) (val uint64, allFromSQ, anyFromSQ bool) {
	q.EntriesSearched += uint64(len(q.stores))
	return gatherStores(q.stores, loadSeq, addr, size, memRead)
}

// LoadResult describes an executed load's forwarding outcome, which the
// pipeline maps to a latency (single-cycle bypass for full forwards, cache
// latency otherwise).
type LoadResult struct {
	Value     uint64 // raw little-endian bytes, not yet sign-extended
	Forwarded bool   // every byte came from an in-flight store
	Partial   bool   // some but not all bytes came from in-flight stores
}

// ExecuteLoad performs a load's age-prioritized search of the store queue,
// recording the obtained value for later violation checks.
func (q *LSQ) ExecuteLoad(seq seqnum.Seq, addr uint64, size int, memRead MemReader) (LoadResult, error) {
	q.LoadSearches++
	e := q.findLoad(seq)
	if e == nil {
		return LoadResult{}, fmt.Errorf("core: LSQ ExecuteLoad unknown seq %d", seq)
	}
	val, all, any := q.gather(seq, addr, size, memRead)
	e.executed = true
	e.addr = addr
	e.size = size
	e.value = val
	return LoadResult{Value: val, Forwarded: all, Partial: any && !all}, nil
}

// ExecuteStore records a store's address and value and performs the
// age-prioritized load queue search for true-dependence violations: any
// younger, already-executed load whose current gather value differs from the
// value it obtained has consumed stale data. Comparing values (rather than
// mere address overlap) makes the check immune to silent stores. The
// earliest conflicting load is returned as the flush point.
func (q *LSQ) ExecuteStore(seq seqnum.Seq, addr uint64, size int, value uint64, memRead MemReader) (*Violation, error) {
	q.StoreSearches++
	st, err := q.recordStore(seq, addr, size, value)
	if err != nil {
		return nil, err
	}

	// Age-prioritized search of the load queue (loads are in program
	// order, so the first conflicting entry is the earliest).
	q.EntriesSearched += uint64(len(q.loads))
	for li := range q.loads {
		ld := &q.loads[li]
		if !ld.executed || !seqnum.After(ld.seq, seq) {
			continue
		}
		if !overlaps(ld.addr, ld.size, addr, size) {
			continue
		}
		correct, _, _ := q.gather(ld.seq, ld.addr, ld.size, memRead)
		if correct == ld.value {
			q.SilentSquelch++
			continue
		}
		q.Violations++
		return &Violation{
			Kind:         TrueViolation,
			ProducerPC:   st.pc,
			ProducerSeq:  seq,
			ConsumerPC:   ld.pc,
			ConsumerSeq:  ld.seq,
			FlushFromSeq: ld.seq, // flush the earliest conflicting load and all subsequent
		}, nil
	}
	return nil, nil
}

// recordStore fills in an executing store's queue entry: its address and
// its value masked to size.
func (q *LSQ) recordStore(seq seqnum.Seq, addr uint64, size int, value uint64) (*sqEntry, error) {
	st := q.findStore(seq)
	if st == nil {
		return nil, fmt.Errorf("core: LSQ ExecuteStore unknown seq %d", seq)
	}
	st.executed = true
	st.addr = addr
	st.size = size
	st.value = value & sizeMaskLSQ(size)
	return st, nil
}

// RetireLoad removes the (head) load queue entry for seq.
func (q *LSQ) RetireLoad(seq seqnum.Seq) error {
	if len(q.loads) == 0 || q.loads[0].seq != seq {
		return fmt.Errorf("core: LSQ RetireLoad %d not at head", seq)
	}
	// Shift in place rather than reslicing forward: the reslice walks the
	// backing array and forces an allocating append every capacity
	// retirements, which the cycle loop's zero-alloc budget forbids.
	q.loads = q.loads[:copy(q.loads, q.loads[1:])]
	return nil
}

// RetireStore removes the (head) store queue entry for seq and returns its
// address, size, and value for commitment.
func (q *LSQ) RetireStore(seq seqnum.Seq) (addr uint64, size int, value uint64, err error) {
	if len(q.stores) == 0 || q.stores[0].seq != seq {
		return 0, 0, 0, fmt.Errorf("core: LSQ RetireStore %d not at head", seq)
	}
	h := q.stores[0]
	if !h.executed {
		return 0, 0, 0, fmt.Errorf("core: LSQ RetireStore %d not executed", seq)
	}
	q.stores = q.stores[:copy(q.stores, q.stores[1:])]
	return h.addr, h.size, h.value, nil
}

// SquashFrom removes all loads and stores with sequence number >= from.
func (q *LSQ) SquashFrom(from seqnum.Seq) {
	for i, e := range q.loads {
		if !seqnum.Before(e.seq, from) {
			q.loads = q.loads[:i]
			break
		}
	}
	for i, e := range q.stores {
		if !seqnum.Before(e.seq, from) {
			q.stores = q.stores[:i]
			break
		}
	}
}

func (q *LSQ) findLoad(seq seqnum.Seq) *lqEntry {
	for i := range q.loads {
		if q.loads[i].seq == seq {
			return &q.loads[i]
		}
	}
	return nil
}

func (q *LSQ) findStore(seq seqnum.Seq) *sqEntry {
	for i := range q.stores {
		if q.stores[i].seq == seq {
			return &q.stores[i]
		}
	}
	return nil
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func sizeMaskLSQ(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

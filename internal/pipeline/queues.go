package pipeline

// This file holds the allocation-free storage backing the cycle loop: fixed
// ring buffers for the ROB and fetch queue (replacing slide-and-append
// slices whose backing arrays reallocated every capacity retirements) and
// the free-list pool of ROB entries. Together with the event wheel these
// make the steady-state cycle loop allocate nothing per retired
// instruction.

// robQueue is a fixed-capacity ring of in-flight instructions, oldest
// first. Capacity is the ROB size; dispatch checks fullness before pushing.
type robQueue struct {
	buf  []*entry
	head int
	n    int
}

// init sizes the ring for capacity entries, reusing storage when possible.
func (q *robQueue) init(capacity int) {
	if len(q.buf) < capacity {
		q.buf = make([]*entry, capacity)
	}
	q.head = 0
	q.n = 0
}

func (q *robQueue) idx(i int) int {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *robQueue) len() int        { return q.n }
func (q *robQueue) at(i int) *entry { return q.buf[q.idx(i)] }

// pushBack appends e and records its ring slot, which doubles as the entry's
// bit index in the scheduler's ready bitset.
func (q *robQueue) pushBack(e *entry) {
	i := q.idx(q.n)
	e.slot = int32(i)
	q.buf[i] = e
	q.n++
}

func (q *robQueue) popFront() *entry {
	e := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return e
}

// truncate drops all but the first keep entries (a squashed suffix).
func (q *robQueue) truncate(keep int) {
	for i := keep; i < q.n; i++ {
		q.buf[q.idx(i)] = nil
	}
	q.n = keep
}

// fqQueue is a fixed-capacity ring of fetched, not-yet-dispatched
// instructions, oldest first.
type fqQueue struct {
	buf  []fqEntry
	head int
	n    int
}

func (q *fqQueue) init(capacity int) {
	if len(q.buf) < capacity {
		q.buf = make([]fqEntry, capacity)
	}
	q.head = 0
	q.n = 0
}

func (q *fqQueue) idx(i int) int {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *fqQueue) len() int           { return q.n }
func (q *fqQueue) at(i int) *fqEntry  { return &q.buf[q.idx(i)] }
func (q *fqQueue) pushBack(f fqEntry) { q.buf[q.idx(q.n)] = f; q.n++ }

func (q *fqQueue) popFront() {
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

func (q *fqQueue) clear() {
	q.head = 0
	q.n = 0
}

// allocEntry takes a zeroed entry from the pool (or the heap when the pool
// is empty).
func (p *Pipeline) allocEntry() *entry {
	if n := len(p.pool); n > 0 {
		e := p.pool[n-1]
		p.pool[n-1] = nil
		p.pool = p.pool[:n-1]
		*e = entry{}
		return e
	}
	return &entry{}
}

// freeEntry returns an entry to the pool. It is idempotent: a squashed entry
// can be freed both by recovery and by the event wheel draining it, and only
// the first call recycles it.
func (p *Pipeline) freeEntry(e *entry) {
	if e.pooled {
		return
	}
	e.pooled = true
	p.pool = append(p.pool, e)
}

// eventHorizon is the completion wheel's horizon: one bucket per cycle out
// to the longest schedulable latency, plus slack. That latency is an
// L2-missing load behind the SFC's tag-check cycle: address generation,
// the extra cycle, and the Figure 4 hierarchy's 2-cycle L1 hit, 10-cycle
// L1 miss and 100-cycle L2 miss. Anything longer lands on the wheel's
// overflow list, which stays correct, just slower.
const eventHorizon = aguLat + sfcTagCheckExtra + 2 + 10 + 100 + 2

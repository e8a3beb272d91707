package core

import (
	"fmt"

	"sfcmdt/internal/seqnum"
)

// MDTConfig describes a memory disambiguation table.
type MDTConfig struct {
	Sets      int  // number of sets (power of two)
	Ways      int  // associativity
	GranBytes int  // bytes tracked per entry (power of two; paper uses 8)
	Tagged    bool // tagged entries prevent aliasing (paper's main design)
}

// Validate checks the geometry.
func (c MDTConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("core: MDT sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("core: MDT ways %d not positive", c.Ways)
	}
	if c.GranBytes <= 0 || c.GranBytes&(c.GranBytes-1) != 0 {
		return fmt.Errorf("core: MDT granularity %d not a positive power of two", c.GranBytes)
	}
	return nil
}

// mdtEntry tracks the highest sequence numbers yet seen of the in-flight
// loads and stores to one granule of memory, along with pointers (PCs and
// sequence numbers) to those instructions for predictor training.
type mdtEntry struct {
	valid bool
	tag   uint64 // granule number (addr / granularity)

	loadValid bool
	loadSeq   seqnum.Seq
	loadPC    uint64

	storeValid bool
	storeSeq   seqnum.Seq
	storePC    uint64

	// completedLoads counts loads completed but not yet retired whose
	// latest access mapped here; used by the §2.4.1 aggressive recovery
	// optimization. The count is conservative: squashed loads are not
	// deducted (the MDT ignores partial flushes), which can only disable
	// the optimization, never unsoundly enable it... see DecLoads.
	completedLoads int
}

// MDTResult is the outcome of one MDT access.
type MDTResult struct {
	// Conflict is true when a tagged MDT had no way available for the
	// access; the instruction must be dropped and re-executed.
	Conflict bool
	// Violation is non-nil when the access detected a memory-dependence
	// violation.
	Violation *Violation
}

// MDT is the address-indexed memory disambiguation table (paper §2.2). It
// replaces the load queue and its associative search: disambiguation costs
// at most two sequence-number comparisons per issued load or store.
type MDT struct {
	cfg     MDTConfig
	entries []mdtEntry // sets*ways
	granSh  uint
	setMask uint64

	// lastWay memoizes, per set, the entry index of the most recent tag
	// hit (way memoization; see the matching field on SFC). A granule tag
	// lives in at most one way of its set, so a validated memo hit is the
	// full walk's answer. -1 marks no memo; only the tagged configuration
	// uses it (the untagged MDT is direct-mapped already).
	lastWay []int32

	// bound is the sequence number of the oldest in-flight instruction.
	// Entries whose recorded sequence numbers all precede it belong to
	// retired or canceled instructions, can no longer witness a violation
	// among live instructions, and are therefore reclaimable. Without
	// reclamation, wrong-path accesses to never-revisited addresses would
	// leak entries until the table silts up (the paper's MDT ignores
	// partial flushes, so this is the minimal sound garbage collection).
	bound seqnum.Seq

	// TrueOnly disables anti- and output-violation detection. Used with
	// the multi-version SFC (§4 alternative), whose renaming makes those
	// violations impossible; sequence-number bookkeeping is unchanged so
	// true-violation detection keeps working.
	TrueOnly bool

	// SingleLoadOpt enables the §2.4.1 recovery optimization: when a true
	// violation is detected and exactly one completed un-retired load maps
	// to the entry, the flush point moves forward to the conflicting load.
	SingleLoadOpt bool

	// Stats.
	Accesses  uint64
	Conflicts uint64
	Reclaimed uint64
	// EntriesSearched counts ways examined — the address-indexed
	// counterpart of the LSQ's CAM-activity proxy (at most Ways per
	// access, independent of occupancy).
	EntriesSearched uint64
	Occupied        int // currently valid entries
}

// NewMDT builds an MDT.
func NewMDT(cfg MDTConfig) *MDT {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sh := uint(0)
	for 1<<sh < cfg.GranBytes {
		sh++
	}
	m := &MDT{
		cfg:     cfg,
		entries: make([]mdtEntry, cfg.Sets*cfg.Ways),
		lastWay: make([]int32, cfg.Sets),
		granSh:  sh,
		setMask: uint64(cfg.Sets - 1),
	}
	for i := range m.lastWay {
		m.lastWay[i] = -1
	}
	return m
}

// Config returns the MDT geometry.
func (m *MDT) Config() MDTConfig { return m.cfg }

// SetBound advances the reclamation bound: the sequence number of the
// oldest instruction still in flight. The pipeline calls this every cycle.
func (m *MDT) SetBound(oldest seqnum.Seq) { m.bound = oldest }

// reclaimable reports whether a valid entry can no longer affect any live
// instruction: every recorded sequence number precedes the bound.
func (m *MDT) reclaimable(e *mdtEntry) bool {
	if e.loadValid && !seqnum.Before(e.loadSeq, m.bound) {
		return false
	}
	if e.storeValid && !seqnum.Before(e.storeSeq, m.bound) {
		return false
	}
	return true
}

// granules returns the granule numbers covered by [addr, addr+size). With
// the paper's 8-byte granularity and naturally aligned accesses this is
// always a single granule; sub-8-byte granularities (ablation E9) may span
// several.
func (m *MDT) granules(addr uint64, size int) (first, count uint64) {
	first = addr >> m.granSh
	last := (addr + uint64(size) - 1) >> m.granSh
	return first, last - first + 1
}

// lookup finds the entry for a granule, allocating one if alloc is set and a
// way is free. It returns nil when a tagged MDT has a set conflict. In the
// untagged configuration every granule unconditionally shares the entry its
// set maps to (way 0), so conflicts never occur but aliasing does.
func (m *MDT) lookup(gran uint64, alloc bool) *mdtEntry {
	set := int(gran & m.setMask)
	base := set * m.cfg.Ways
	if !m.cfg.Tagged {
		m.EntriesSearched += uint64(m.cfg.Ways)
		e := &m.entries[base]
		if !e.valid {
			if !alloc {
				return nil
			}
			e.valid = true
			m.Occupied++
		}
		return e
	}
	if w := m.lastWay[set]; w >= 0 {
		if e := &m.entries[w]; e.valid && e.tag == gran {
			m.EntriesSearched++
			return e
		}
	}
	m.EntriesSearched += uint64(m.cfg.Ways)
	free, stale := -1, -1
	for i := base; i < base+m.cfg.Ways; i++ {
		e := &m.entries[i]
		if e.valid && e.tag == gran {
			m.lastWay[set] = int32(i)
			return e
		}
		if !e.valid && free < 0 {
			free = i
		}
		if e.valid && stale < 0 && m.reclaimable(e) {
			stale = i
		}
	}
	if !alloc {
		return nil
	}
	if free < 0 && stale >= 0 {
		m.Reclaimed++
		free = stale
		m.Occupied--
	}
	if free < 0 {
		return nil // set conflict
	}
	e := &m.entries[free]
	*e = mdtEntry{valid: true, tag: gran}
	m.lastWay[set] = int32(free)
	m.Occupied++
	return e
}

// Preprobe warms the way memo of the set a *predicted* load address maps to
// (see SFC.Preprobe for the harmlessness argument). A no-op for the
// untagged MDT, which is direct-mapped and keeps no memo. Returns whether
// the granule is present.
func (m *MDT) Preprobe(addr uint64) bool {
	gran := addr >> m.granSh
	set := int(gran & m.setMask)
	base := set * m.cfg.Ways
	if !m.cfg.Tagged {
		return m.entries[base].valid
	}
	if w := m.lastWay[set]; w >= 0 {
		if e := &m.entries[w]; e.valid && e.tag == gran {
			return true
		}
	}
	for i := base; i < base+m.cfg.Ways; i++ {
		if e := &m.entries[i]; e.valid && e.tag == gran {
			m.lastWay[set] = int32(i)
			return true
		}
	}
	return false
}

// AccessLoad performs a load's MDT access (at execution, once the address is
// known). It detects anti-dependence violations and records the load as the
// latest to its address. On a violation the load itself is the flush point
// (the pipeline flushes the load and all subsequent instructions, §2.2).
func (m *MDT) AccessLoad(seq seqnum.Seq, pc, addr uint64, size int) MDTResult {
	m.Accesses++
	first, n := m.granules(addr, size)
	if n == 1 {
		// Single-granule fast path (the common case with the paper's
		// 8-byte granularity and natural alignment): one probe serves
		// both the violation check and the update, since there is no
		// multi-granule half-update to guard against.
		e := m.lookup(first, true)
		if e == nil {
			m.Conflicts++
			return MDTResult{Conflict: true}
		}
		if v := m.antiViolation(e, seq, pc); v != nil {
			return MDTResult{Violation: v}
		}
		if !e.loadValid || !seqnum.Before(seq, e.loadSeq) {
			e.loadValid = true
			e.loadSeq = seq
			e.loadPC = pc
		}
		e.completedLoads++
		return MDTResult{}
	}
	// Pass 1: make sure every granule has an entry (or report a conflict)
	// and check for violations before mutating, so a violating access does
	// not half-update the table.
	for g := first; g < first+n; g++ {
		e := m.lookup(g, true)
		if e == nil {
			m.Conflicts++
			return MDTResult{Conflict: true}
		}
		if v := m.antiViolation(e, seq, pc); v != nil {
			return MDTResult{Violation: v}
		}
	}
	for g := first; g < first+n; g++ {
		e := m.lookup(g, true)
		if !e.loadValid || !seqnum.Before(seq, e.loadSeq) {
			e.loadValid = true
			e.loadSeq = seq
			e.loadPC = pc
		}
		e.completedLoads++
	}
	return MDTResult{}
}

// AccessStore performs a store's MDT access (at completion). It detects true
// and output dependence violations and records the store as the latest to
// its address. For both violation kinds the flush point is the instruction
// after the completing store (the store itself survives), unless the
// single-load optimization applies.
func (m *MDT) AccessStore(seq seqnum.Seq, pc, addr uint64, size int) MDTResult {
	m.Accesses++
	first, n := m.granules(addr, size)
	if n == 1 {
		// Single-granule fast path; see AccessLoad.
		e := m.lookup(first, true)
		if e == nil {
			m.Conflicts++
			return MDTResult{Conflict: true}
		}
		if v := m.storeViolation(e, seq, pc); v != nil {
			return MDTResult{Violation: v}
		}
		e.storeValid = true
		e.storeSeq = seq
		e.storePC = pc
		return MDTResult{}
	}
	for g := first; g < first+n; g++ {
		e := m.lookup(g, true)
		if e == nil {
			m.Conflicts++
			return MDTResult{Conflict: true}
		}
		if v := m.storeViolation(e, seq, pc); v != nil {
			return MDTResult{Violation: v}
		}
	}
	for g := first; g < first+n; g++ {
		e := m.lookup(g, true)
		e.storeValid = true
		e.storeSeq = seq
		e.storePC = pc
	}
	return MDTResult{}
}

// antiViolation checks a load (seq, pc) against one entry: unless TrueOnly,
// a younger recorded store means the load may read that store's value. The
// load itself is the flush point.
func (m *MDT) antiViolation(e *mdtEntry, seq seqnum.Seq, pc uint64) *Violation {
	if m.TrueOnly || !e.storeValid || !seqnum.Before(seq, e.storeSeq) {
		return nil
	}
	return &Violation{
		Kind:         AntiViolation,
		ProducerPC:   pc,
		ProducerSeq:  seq,
		ConsumerPC:   e.storePC,
		ConsumerSeq:  e.storeSeq,
		FlushFromSeq: seq, // flush the load and all subsequent
	}
}

// trueViolation checks a store (seq, pc) against one entry: a younger
// recorded load has already consumed a stale value.
func (m *MDT) trueViolation(e *mdtEntry, seq seqnum.Seq, pc uint64) *Violation {
	if !e.loadValid || !seqnum.Before(seq, e.loadSeq) {
		return nil
	}
	v := &Violation{
		Kind:         TrueViolation,
		ProducerPC:   pc,
		ProducerSeq:  seq,
		ConsumerPC:   e.loadPC,
		ConsumerSeq:  e.loadSeq,
		FlushFromSeq: seq + 1, // conservative: everything after the store
	}
	if m.SingleLoadOpt && e.completedLoads == 1 {
		// §2.4.1: the buffered load is provably the only (hence
		// earliest) conflicting load; flush from it instead.
		v.FlushFromSeq = e.loadSeq
	}
	return v
}

// storeViolation performs a completing store's violation checks against one
// entry: a true violation against a younger recorded load, then (unless
// TrueOnly) an output violation against a younger recorded store.
func (m *MDT) storeViolation(e *mdtEntry, seq seqnum.Seq, pc uint64) *Violation {
	if v := m.trueViolation(e, seq, pc); v != nil {
		return v
	}
	if !m.TrueOnly && e.storeValid && seqnum.Before(seq, e.storeSeq) {
		return &Violation{
			Kind:         OutputViolation,
			ProducerPC:   pc,
			ProducerSeq:  seq,
			ConsumerPC:   e.storePC,
			ConsumerSeq:  e.storeSeq,
			FlushFromSeq: seq + 1,
		}
	}
	return nil
}

// CheckStoreAtHead performs the read-only MDT check for a store executing
// via the ROB-head bypass (§2.2). The bypassing store skips allocation and
// sequence-number updates (it retires immediately), but it must still detect
// true-dependence violations: a younger load may already have executed with
// a stale value. Output violations need no check — the bypassing store never
// writes the SFC, so it cannot overwrite a later store's value.
func (m *MDT) CheckStoreAtHead(seq seqnum.Seq, pc, addr uint64, size int) *Violation {
	first, n := m.granules(addr, size)
	for g := first; g < first+n; g++ {
		e := m.lookup(g, false)
		if e == nil {
			continue
		}
		if v := m.trueViolation(e, seq, pc); v != nil {
			return v
		}
	}
	return nil
}

// CheckLoadAnti performs the read-only anti-violation probe for a load that
// the §4 search filter exempted from allocation: the load still must not
// consume a younger completed store's value, but it records nothing (no
// later older store can flag it, by the filter's premise).
func (m *MDT) CheckLoadAnti(seq seqnum.Seq, pc, addr uint64, size int) *Violation {
	if m.TrueOnly {
		return nil
	}
	first, n := m.granules(addr, size)
	for g := first; g < first+n; g++ {
		e := m.lookup(g, false)
		if e == nil {
			continue
		}
		if v := m.antiViolation(e, seq, pc); v != nil {
			return v
		}
	}
	return nil
}

// LoadDropped undoes the completed-load count of a load that passed its MDT
// access but was then dropped by the memory unit (e.g. an SFC corruption or
// partial match) and placed back in the scheduler. Without this the counter
// would drift upward across replays; drift is harmless (it only disables the
// §2.4.1 optimization) but unnecessary.
func (m *MDT) LoadDropped(seq seqnum.Seq, addr uint64, size int) {
	first, n := m.granules(addr, size)
	for g := first; g < first+n; g++ {
		if e := m.lookup(g, false); e != nil && e.completedLoads > 0 {
			e.completedLoads--
		}
	}
}

// RetireLoad performs a retiring load's MDT bookkeeping: if the retiring
// load is the latest in-flight load to its address, the load sequence number
// is invalidated, and the entry freed once both sequence numbers are
// invalid. It returns true if any entry was freed (the pipeline uses this to
// clear stall bits, §2.4.3).
func (m *MDT) RetireLoad(seq seqnum.Seq, addr uint64, size int) bool {
	freed := false
	first, n := m.granules(addr, size)
	for g := first; g < first+n; g++ {
		e := m.lookup(g, false)
		if e == nil {
			continue
		}
		if e.completedLoads > 0 {
			e.completedLoads--
		}
		if e.loadValid && e.loadSeq == seq {
			e.loadValid = false
		}
		if !e.loadValid && !e.storeValid {
			e.valid = false
			m.Occupied--
			freed = true
		}
	}
	return freed
}

// RetireStore is the store analogue of RetireLoad.
func (m *MDT) RetireStore(seq seqnum.Seq, addr uint64, size int) bool {
	freed := false
	first, n := m.granules(addr, size)
	for g := first; g < first+n; g++ {
		e := m.lookup(g, false)
		if e == nil {
			continue
		}
		if e.storeValid && e.storeSeq == seq {
			e.storeValid = false
		}
		if !e.loadValid && !e.storeValid {
			e.valid = false
			m.Occupied--
			freed = true
		}
	}
	return freed
}

// Reset clears the table, reclamation bound, and statistics for a fresh run
// (the MDT itself never reacts to pipeline flushes — §2.2: "when a partial
// pipeline flush occurs, the MDT state does not change in any way"). The
// TrueOnly and SingleLoadOpt policy flags are left for the owner to set.
func (m *MDT) Reset() {
	for i := range m.entries {
		m.entries[i] = mdtEntry{}
	}
	for i := range m.lastWay {
		m.lastWay[i] = -1
	}
	m.bound = 0
	m.Accesses = 0
	m.Conflicts = 0
	m.Reclaimed = 0
	m.EntriesSearched = 0
	m.Occupied = 0
}

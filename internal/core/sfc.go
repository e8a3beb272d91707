package core

import (
	"fmt"

	"sfcmdt/internal/seqnum"
)

// SFCConfig describes a store forwarding cache. Lines are fixed at 8 bytes
// (one aligned memory word), matching the paper.
type SFCConfig struct {
	Sets int // power of two
	Ways int
	// FlushEndpoints enables the paper's §3.2 alternative to corruption
	// bits: instead of conservatively poisoning every valid byte on a
	// partial flush, the SFC records up to this many (earliest, latest)
	// flushed-sequence-number windows and checks each forwarded byte's
	// writer against them. When the window ring overflows, the oldest
	// window is retired by sweeping the cache and corrupt-marking exactly
	// the bytes it covers (the corruption bits remain as the sound
	// backstop). 0 selects the classic corruption-bit mechanism.
	FlushEndpoints int
}

// Validate checks the geometry.
func (c SFCConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("core: SFC sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("core: SFC ways %d not positive", c.Ways)
	}
	return nil
}

// SFCLineBytes is the width of one SFC entry's data field.
const SFCLineBytes = 8

// sfcEntry holds the cumulative in-flight value of one aligned memory word.
type sfcEntry struct {
	valid      bool       // tag valid
	tag        uint64     // word number (addr >> 3)
	data       uint64     // word value, little-endian byte lanes (byte i at bits [8i,8i+8))
	validMask  uint8      // which bytes hold in-flight store data
	corrupt    uint8      // which bytes may have been written by canceled stores
	lastWriter seqnum.Seq // highest sequence number that wrote this entry
	// byteWriter tracks the writing store of each byte; maintained only
	// in flush-endpoint mode (§3.2 alternative to corruption bits).
	byteWriter [SFCLineBytes]seqnum.Seq
}

// flushWindow is one recorded partial flush: every sequence number in
// [lo, hi] was canceled.
type flushWindow struct {
	lo, hi seqnum.Seq
}

// SFCReadStatus classifies a load's SFC lookup.
type SFCReadStatus uint8

const (
	// SFCMiss: no entry, or no requested byte is valid; the load takes its
	// value entirely from the cache hierarchy.
	SFCMiss SFCReadStatus = iota
	// SFCFull: every requested byte is valid and clean; the load's value
	// comes entirely from the SFC.
	SFCFull
	// SFCPartial: some but not all requested bytes are valid (a subword
	// store preceded a wider load); the memory unit either merges the
	// missing bytes from the cache or replays the load.
	SFCPartial
	// SFCCorrupt: at least one requested byte is marked corrupt; the load
	// must be dropped and re-executed (§2.3).
	SFCCorrupt
)

func (s SFCReadStatus) String() string {
	switch s {
	case SFCMiss:
		return "miss"
	case SFCFull:
		return "full"
	case SFCPartial:
		return "partial"
	case SFCCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// SFC is the store forwarding cache (paper §2.3): a small, tagged,
// set-associative cache holding a single cumulative value per in-flight
// memory word. It replaces the store queue's associative forwarding search
// with an address-indexed lookup.
type SFC struct {
	cfg     SFCConfig
	entries []sfcEntry
	setMask uint64

	// lastWay memoizes, per set, the entry index of the most recent tag
	// hit (way memoization, after Ishihara & Fallah): because a word tag
	// can live in at most one way of its set, a memo hit is the full
	// walk's answer and costs one compare. -1 marks no memo. The memo is
	// validated on every use (valid bit + tag), so invalidations and
	// evictions need no bookkeeping here.
	lastWay []int32

	// bound is the sequence number of the oldest in-flight instruction.
	// An entry whose last writer precedes it was written only by retired
	// stores (whose bytes are committed to the cache hierarchy) or
	// canceled stores (whose bytes must not be used), so it is safe to
	// reclaim; see the matching comment on MDT.bound.
	bound seqnum.Seq

	// windows holds the live flush windows in flush-endpoint mode,
	// oldest first.
	windows []flushWindow

	// Stats.
	StoreWrites    uint64
	StoreConflicts uint64
	// EntriesSearched counts ways examined per address-indexed access; a
	// memoized last-way hit examines exactly one.
	EntriesSearched uint64
	Corruptions     uint64 // partial-flush corruption events
	Reclaimed       uint64
	WindowsMerged   uint64 // flush windows retired by a corruption sweep
	Occupied        int
}

// NewSFC builds an SFC.
func NewSFC(cfg SFCConfig) *SFC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &SFC{
		cfg:     cfg,
		entries: make([]sfcEntry, cfg.Sets*cfg.Ways),
		lastWay: make([]int32, cfg.Sets),
		setMask: uint64(cfg.Sets - 1),
	}
	for i := range s.lastWay {
		s.lastWay[i] = -1
	}
	return s
}

// Config returns the SFC geometry.
func (s *SFC) Config() SFCConfig { return s.cfg }

// SetBound advances the reclamation bound (the oldest in-flight sequence
// number); the pipeline calls this every cycle.
func (s *SFC) SetBound(oldest seqnum.Seq) { s.bound = oldest }

func (s *SFC) reclaimable(e *sfcEntry) bool {
	return seqnum.Before(e.lastWriter, s.bound)
}

func (s *SFC) lookup(word uint64, alloc bool) *sfcEntry {
	set := int(word & s.setMask)
	if w := s.lastWay[set]; w >= 0 {
		e := &s.entries[w]
		if e.valid && e.tag == word {
			s.EntriesSearched++
			if alloc && s.reclaimable(e) {
				s.Reclaimed++
				*e = sfcEntry{valid: true, tag: word}
			}
			return e
		}
	}
	s.EntriesSearched += uint64(s.cfg.Ways)
	base := set * s.cfg.Ways
	free, stale := -1, -1
	for i := base; i < base+s.cfg.Ways; i++ {
		e := &s.entries[i]
		if e.valid && e.tag == word {
			s.lastWay[set] = int32(i)
			// A fossil entry (last writer retired or canceled) must not
			// supply data to loads; reclaim it in place on any access.
			if alloc && s.reclaimable(e) {
				s.Reclaimed++
				*e = sfcEntry{valid: true, tag: word}
			}
			return e
		}
		if !e.valid && free < 0 {
			free = i
		}
		if e.valid && stale < 0 && s.reclaimable(e) {
			stale = i
		}
	}
	if !alloc {
		return nil
	}
	if free < 0 && stale >= 0 {
		s.Reclaimed++
		free = stale
		s.Occupied--
	}
	if free < 0 {
		return nil
	}
	e := &s.entries[free]
	*e = sfcEntry{valid: true, tag: word}
	s.lastWay[set] = int32(free)
	s.Occupied++
	return e
}

// CanWrite reports whether a store to addr could write the SFC right now
// (its word is present or a way is free). The memory unit probes before the
// MDT access so a conflicting store is dropped without touching the MDT.
func (s *SFC) CanWrite(addr uint64) bool {
	word := addr >> 3
	set := int(word & s.setMask)
	if w := s.lastWay[set]; w >= 0 {
		if e := &s.entries[w]; e.valid && e.tag == word {
			return true
		}
	}
	base := set * s.cfg.Ways
	for i := base; i < base+s.cfg.Ways; i++ {
		e := &s.entries[i]
		if !e.valid || e.tag == word || s.reclaimable(e) {
			return true
		}
	}
	return false
}

// Preprobe warms the way memo of the set a *predicted* load address maps to
// (PCAX-style pre-probe at dispatch; see core.AddrPred). It touches no
// statistics and no entry state — only lastWay, which every real access
// validates against the entry tag before trusting — so a wrong prediction
// is harmless beyond making the eventual walk start at a stale memo.
// Returns whether the word is present (used by the pipeline's pre-probe hit
// accounting only).
func (s *SFC) Preprobe(addr uint64) bool {
	word := addr >> 3
	set := int(word & s.setMask)
	if w := s.lastWay[set]; w >= 0 {
		if e := &s.entries[w]; e.valid && e.tag == word {
			return true
		}
	}
	base := set * s.cfg.Ways
	for i := base; i < base+s.cfg.Ways; i++ {
		if e := &s.entries[i]; e.valid && e.tag == word {
			s.lastWay[set] = int32(i)
			return true
		}
	}
	return false
}

// StoreWrite records a completing store's bytes. It returns false on a set
// conflict, in which case the store cannot complete and must be dropped and
// re-executed. Writing sets the valid bits of the written bytes and clears
// their corruption bits (a new in-flight value supersedes any corruption).
func (s *SFC) StoreWrite(seq seqnum.Seq, addr uint64, size int, value uint64) bool {
	word := addr >> 3
	off := addr & 7
	e := s.lookup(word, true)
	if e == nil {
		s.StoreConflicts++
		return false
	}
	mask := byteMask(off, size)
	lanes := byteMaskExpand[mask]
	e.data = e.data&^lanes | (value<<(8*off))&lanes
	if s.cfg.FlushEndpoints > 0 {
		for i := 0; i < size; i++ {
			e.byteWriter[off+uint64(i)] = seq
		}
	}
	e.validMask |= mask
	e.corrupt &^= mask
	if seqnum.After(seq, e.lastWriter) || e.lastWriter == seqnum.None {
		e.lastWriter = seq
	}
	s.StoreWrites++
	return true
}

// SFCReadResult is a load's view of an SFC entry.
type SFCReadResult struct {
	Status SFCReadStatus
	// Word and ValidMask describe the requested bytes: byte i of the
	// request (i = 0 at the lowest requested address) occupies bits
	// [8i, 8i+8) of Word. For SFCFull all requested bytes are present; for
	// SFCPartial only those with a set ValidMask bit are, and bytes
	// without one are zero in Word.
	Word      uint64
	ValidMask uint8 // bit i set => byte i of Word is in-flight store data
}

// LoadRead performs a load's address-indexed lookup.
func (s *SFC) LoadRead(addr uint64, size int) SFCReadResult {
	word := addr >> 3
	off := addr & 7
	e := s.lookup(word, false)
	want := byteMask(off, size)
	if e == nil || e.validMask&want == 0 {
		if e != nil && e.corrupt&want != 0 {
			return SFCReadResult{Status: SFCCorrupt}
		}
		return SFCReadResult{Status: SFCMiss}
	}
	if e.corrupt&want != 0 {
		return SFCReadResult{Status: SFCCorrupt}
	}
	if s.cfg.FlushEndpoints > 0 {
		// §3.2 alternative: a byte written by a canceled store has a
		// writer inside some recorded flush window.
		for i := 0; i < size; i++ {
			if e.validMask&(1<<(off+uint64(i))) == 0 {
				continue
			}
			w := e.byteWriter[off+uint64(i)]
			for _, fw := range s.windows {
				if seqnum.Between(w, fw.lo, fw.hi) {
					return SFCReadResult{Status: SFCCorrupt}
				}
			}
		}
	}
	vm := (e.validMask & want) >> off
	res := SFCReadResult{
		Word:      (e.data >> (8 * off)) & byteMaskExpand[vm],
		ValidMask: vm,
	}
	if e.validMask&want == want {
		res.Status = SFCFull
	} else {
		res.Status = SFCPartial
	}
	return res
}

// MarkAllCorrupt implements the partial-flush rule (§2.3): every valid byte
// is marked corrupt, because canceled stores may have overwritten completed,
// unretired stores' values and the SFC cannot tell which.
func (s *SFC) MarkAllCorrupt() {
	s.Corruptions++
	for i := range s.entries {
		e := &s.entries[i]
		if e.valid {
			e.corrupt |= e.validMask
		}
	}
}

// RecordPartialFlush is the partial-flush hook. In the classic mechanism
// (FlushEndpoints == 0) it marks every valid byte corrupt; in flush-endpoint
// mode it records the flushed sequence window [lo, hi], retiring the oldest
// window with a precise corruption sweep if the ring is full.
func (s *SFC) RecordPartialFlush(lo, hi seqnum.Seq) {
	if s.cfg.FlushEndpoints <= 0 {
		s.MarkAllCorrupt()
		return
	}
	s.Corruptions++
	s.windows = append(s.windows, flushWindow{lo, hi})
	for len(s.windows) > s.cfg.FlushEndpoints {
		old := s.windows[0]
		s.windows = s.windows[1:]
		s.sweepCorrupt(old)
		s.WindowsMerged++
	}
}

// sweepCorrupt marks corrupt exactly the bytes whose writer falls in the
// retired window, preserving soundness once the window is forgotten.
func (s *SFC) sweepCorrupt(w flushWindow) {
	for i := range s.entries {
		e := &s.entries[i]
		if !e.valid {
			continue
		}
		for b := 0; b < SFCLineBytes; b++ {
			if e.validMask&(1<<b) != 0 && seqnum.Between(e.byteWriter[b], w.lo, w.hi) {
				e.corrupt |= 1 << b
			}
		}
	}
}

// CorruptWord marks a single word's valid bytes corrupt. Used by the §2.4.2
// output-violation optimization: instead of flushing the pipeline, the
// overwritten SFC entry is poisoned and the normal corruption machinery
// handles dependent loads.
func (s *SFC) CorruptWord(addr uint64) {
	if e := s.lookup(addr>>3, false); e != nil {
		e.corrupt |= e.validMask
	}
}

// Flush empties the SFC. Used on full pipeline flushes, when no completed
// unretired stores remain in flight and all canceled-store effects can be
// discarded wholesale.
func (s *SFC) Flush() {
	for i := range s.entries {
		s.entries[i] = sfcEntry{}
	}
	for i := range s.lastWay {
		s.lastWay[i] = -1
	}
	s.windows = s.windows[:0]
	s.Occupied = 0
}

// RetireStore frees the entry for addr if the retiring store is the latest
// store to have written it — the same condition under which the MDT
// invalidates its store sequence number. Returns true if an entry was freed.
func (s *SFC) RetireStore(seq seqnum.Seq, addr uint64) bool {
	e := s.lookup(addr>>3, false)
	if e == nil || e.lastWriter != seq {
		return false
	}
	e.valid = false
	e.validMask = 0
	e.corrupt = 0
	s.Occupied--
	return true
}

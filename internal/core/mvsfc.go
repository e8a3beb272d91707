package core

import (
	"fmt"

	"sfcmdt/internal/seqnum"
)

// MVSFC is a multi-version store forwarding cache — the §4 alternative the
// paper contrasts itself against: "more sophisticated multiversion
// timestamp ordering techniques [Reed] also provide memory renaming,
// reducing the number of false dependences detected by the system at the
// cost of a more complex implementation" (the lineage of Franklin & Sohi's
// ARB). Each line holds up to Versions per-store versions of one aligned
// memory word, ordered by sequence number:
//
//   - a load reads, per byte, the youngest version older than itself, so
//     anti and output dependence violations cannot occur and need not be
//     detected or enforced (the MDT degrades to true-violation detection);
//   - a pipeline flush deletes exactly the canceled versions, so the
//     corruption machinery disappears entirely;
//   - the costs are version storage, a small per-access priority search
//     among versions, and version-capacity conflicts.
type MVSFC struct {
	cfg     MVSFCConfig
	entries []mvEntry
	setMask uint64
	bound   seqnum.Seq

	// Stats.
	StoreWrites      uint64
	StoreConflicts   uint64 // set or version-capacity conflicts
	Reclaimed        uint64
	EntriesSearched  uint64 // ways examined
	VersionsSearched uint64 // versions examined (the renaming cost)
	Occupied         int
}

// MVSFCConfig sizes the multi-version SFC.
type MVSFCConfig struct {
	Sets     int
	Ways     int
	Versions int // versions per line
}

// Validate checks the geometry.
func (c MVSFCConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("core: MVSFC sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 || c.Versions <= 0 {
		return fmt.Errorf("core: MVSFC ways %d / versions %d not positive", c.Ways, c.Versions)
	}
	return nil
}

type mvVersion struct {
	seq  seqnum.Seq
	data uint64 // little-endian byte lanes, same layout as sfcEntry.data
	mask uint8
}

type mvEntry struct {
	valid    bool
	tag      uint64
	versions []mvVersion // ascending sequence-number order
}

// NewMVSFC builds a multi-version SFC.
func NewMVSFC(cfg MVSFCConfig) *MVSFC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MVSFC{
		cfg:     cfg,
		entries: make([]mvEntry, cfg.Sets*cfg.Ways),
		setMask: uint64(cfg.Sets - 1),
	}
}

// Config returns the geometry.
func (s *MVSFC) Config() MVSFCConfig { return s.cfg }

// SetBound advances the fossil-reclamation bound (oldest in-flight seq).
func (s *MVSFC) SetBound(oldest seqnum.Seq) { s.bound = oldest }

// reclaimable reports whether every version predates the bound (all its
// writers retired or were canceled).
func (s *MVSFC) reclaimable(e *mvEntry) bool {
	for i := range e.versions {
		if !seqnum.Before(e.versions[i].seq, s.bound) {
			return false
		}
	}
	return true
}

func (s *MVSFC) lookup(word uint64, alloc bool) *mvEntry {
	s.EntriesSearched += uint64(s.cfg.Ways)
	base := int(word&s.setMask) * s.cfg.Ways
	var free, stale *mvEntry
	for i := base; i < base+s.cfg.Ways; i++ {
		e := &s.entries[i]
		if e.valid && e.tag == word {
			if alloc && s.reclaimable(e) {
				s.Reclaimed++
				e.versions = e.versions[:0]
			}
			return e
		}
		if !e.valid && free == nil {
			free = e
		}
		if e.valid && stale == nil && s.reclaimable(e) {
			stale = e
		}
	}
	if !alloc {
		return nil
	}
	if free == nil && stale != nil {
		s.Reclaimed++
		free = stale
		s.Occupied--
	}
	if free == nil {
		return nil
	}
	free.valid = true
	free.tag = word
	free.versions = free.versions[:0]
	s.Occupied++
	return free
}

// CanWrite reports whether a store to addr could allocate a version. The
// word's own entry decides when it has one, wherever it sits in the set:
// StoreWrite writes there and never into a free way.
func (s *MVSFC) CanWrite(seq seqnum.Seq, addr uint64) bool {
	word := addr >> 3
	base := int(word&s.setMask) * s.cfg.Ways
	for i := base; i < base+s.cfg.Ways; i++ {
		if e := &s.entries[i]; e.valid && e.tag == word {
			if len(e.versions) < s.cfg.Versions {
				return true
			}
			// A fossil version can be recycled in place.
			for j := range e.versions {
				if seqnum.Before(e.versions[j].seq, s.bound) {
					return true
				}
			}
			return false
		}
	}
	for i := base; i < base+s.cfg.Ways; i++ {
		if e := &s.entries[i]; !e.valid || s.reclaimable(e) {
			return true
		}
	}
	return false
}

// StoreWrite inserts the store's bytes as a new version (or merges into its
// own version on re-execution). False means a set or version conflict.
func (s *MVSFC) StoreWrite(seq seqnum.Seq, addr uint64, size int, value uint64) bool {
	word := addr >> 3
	off := addr & 7
	e := s.lookup(word, true)
	if e == nil {
		s.StoreConflicts++
		return false
	}
	v := s.versionFor(e, seq)
	if v == nil {
		s.StoreConflicts++
		return false
	}
	mask := byteMask(off, size)
	lanes := byteMaskExpand[mask]
	v.data = v.data&^lanes | (value<<(8*off))&lanes
	v.mask |= mask
	s.StoreWrites++
	return true
}

// versionFor finds or allocates the version slot for seq, keeping the
// version list in ascending sequence order.
func (s *MVSFC) versionFor(e *mvEntry, seq seqnum.Seq) *mvVersion {
	for i := range e.versions {
		if e.versions[i].seq == seq {
			return &e.versions[i]
		}
	}
	if len(e.versions) >= s.cfg.Versions {
		// Recycle a fossil version if one exists.
		recycled := false
		for i := 0; i < len(e.versions); {
			if seqnum.Before(e.versions[i].seq, s.bound) {
				e.versions = append(e.versions[:i], e.versions[i+1:]...)
				recycled = true
			} else {
				i++
			}
		}
		if !recycled {
			return nil
		}
	}
	// Insert in ascending order.
	pos := len(e.versions)
	for pos > 0 && seqnum.After(e.versions[pos-1].seq, seq) {
		pos--
	}
	e.versions = append(e.versions, mvVersion{})
	copy(e.versions[pos+1:], e.versions[pos:])
	e.versions[pos] = mvVersion{seq: seq}
	return &e.versions[pos]
}

// LoadRead assembles, per requested byte, the youngest version strictly
// older than the load — the renaming read.
func (s *MVSFC) LoadRead(seq seqnum.Seq, addr uint64, size int) SFCReadResult {
	word := addr >> 3
	off := addr & 7
	e := s.lookup(word, false)
	if e == nil {
		return SFCReadResult{Status: SFCMiss}
	}
	var res SFCReadResult
	// Versions are in ascending order: walk youngest-first and take the
	// first (youngest) older version that supplies each byte.
	s.VersionsSearched += uint64(len(e.versions))
	for b := 0; b < size; b++ {
		bit := uint8(1) << (off + uint64(b))
		for i := len(e.versions) - 1; i >= 0; i-- {
			v := &e.versions[i]
			if !seqnum.Before(v.seq, seq) {
				continue // the load's own seq or younger: invisible
			}
			if v.mask&bit != 0 {
				res.Word |= uint64(byte(v.data>>(8*(off+uint64(b))))) << (8 * b)
				res.ValidMask |= 1 << b
				break
			}
		}
	}
	want := uint8(1<<size - 1)
	switch {
	case res.ValidMask == 0:
		res.Status = SFCMiss
	case res.ValidMask == want:
		res.Status = SFCFull
	default:
		res.Status = SFCPartial
	}
	return res
}

// RetireStore removes the retiring store's version; the entry is freed once
// no versions remain. Returns true when an entry was freed.
func (s *MVSFC) RetireStore(seq seqnum.Seq, addr uint64) bool {
	e := s.lookup(addr>>3, false)
	if e == nil {
		return false
	}
	for i := range e.versions {
		if e.versions[i].seq == seq {
			e.versions = append(e.versions[:i], e.versions[i+1:]...)
			break
		}
	}
	if len(e.versions) == 0 {
		e.valid = false
		s.Occupied--
		return true
	}
	return false
}

// SquashFrom deletes exactly the canceled versions (sequence numbers >=
// from). No corruption state is needed: the renaming read can never return
// a canceled store's bytes afterwards.
func (s *MVSFC) SquashFrom(from seqnum.Seq) {
	for i := range s.entries {
		e := &s.entries[i]
		if !e.valid {
			continue
		}
		for j := 0; j < len(e.versions); {
			if !seqnum.Before(e.versions[j].seq, from) {
				e.versions = append(e.versions[:j], e.versions[j+1:]...)
			} else {
				j++
			}
		}
		if len(e.versions) == 0 {
			e.valid = false
			s.Occupied--
		}
	}
}

// Flush empties the cache.
func (s *MVSFC) Flush() {
	for i := range s.entries {
		s.entries[i].valid = false
		s.entries[i].versions = s.entries[i].versions[:0]
	}
	s.Occupied = 0
}

package core

// This file holds the between-run Reset methods used by Pipeline.Reset:
// every structure restores its freshly-constructed state while keeping its
// allocations, so the harness can reuse one pipeline across the hundreds of
// (workload × variant) runs in the figure experiments without churning the
// heap. Each Reset must leave the structure indistinguishable from its New*
// counterpart — run results are required to be bit-identical either way.

// Reset restores the SFC to its freshly-built state, keeping the entry
// array.
func (s *SFC) Reset() {
	for i := range s.entries {
		s.entries[i] = sfcEntry{}
	}
	for i := range s.lastWay {
		s.lastWay[i] = -1
	}
	s.bound = 0
	s.windows = s.windows[:0]
	s.StoreWrites = 0
	s.StoreConflicts = 0
	s.EntriesSearched = 0
	s.Corruptions = 0
	s.Reclaimed = 0
	s.WindowsMerged = 0
	s.Occupied = 0
}

// Reset restores the multi-version SFC to its freshly-built state, keeping
// the entry array and per-entry version storage.
func (s *MVSFC) Reset() {
	for i := range s.entries {
		e := &s.entries[i]
		e.valid = false
		e.tag = 0
		e.versions = e.versions[:0]
	}
	s.bound = 0
	s.StoreWrites = 0
	s.StoreConflicts = 0
	s.Reclaimed = 0
	s.EntriesSearched = 0
	s.VersionsSearched = 0
	s.Occupied = 0
}

// Reset restores the LSQ to its freshly-built state, keeping the queue
// storage.
func (q *LSQ) Reset() {
	*q = LSQ{cfg: q.cfg, loads: q.loads[:0], stores: q.stores[:0]}
}

// Reset restores the value-replay subsystem to its freshly-built state,
// keeping the queue storage.
func (q *ValueReplay) Reset() {
	q.LSQ.Reset()
	q.ReplayedLoads = 0
}

// ResetFor reinitializes the predictor for a new run when cfg (after
// defaults) matches the existing geometry, reusing every table. It returns
// false when the geometry differs and the caller must build a new predictor.
func (p *Predictor) ResetFor(cfg PredictorConfig) bool {
	if cfg.withDefaults() != p.cfg {
		return false
	}
	for i := range p.pt {
		p.pt[i] = 0
	}
	for i := range p.ct {
		p.ct[i] = 0
	}
	for i := range p.lfpt {
		p.lfpt[i] = lfptEntry{}
	}
	p.freeTags = p.freeTags[:p.cfg.NumTags]
	for i := range p.freeTags {
		p.freeTags[i] = TagID(p.cfg.NumTags - 1 - i)
		p.tags[i] = tagState{free: true}
		p.tagSlot[i] = -1
	}
	p.nextSet = 0
	p.Violations = 0
	p.SetMerges = 0
	p.TagStalls = 0
	return true
}

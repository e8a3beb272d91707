// Package metrics collects the statistics every experiment in the paper's
// evaluation reports: IPC, memory-dependence violation rates by kind, replay
// rates by cause (SFC set conflicts, MDT set conflicts, SFC corruptions,
// partial matches), branch predictor behaviour, and structure occupancy.
package metrics

import "fmt"

// Stats is the full counter set for one pipeline run.
type Stats struct {
	// Progress. CyclesElided counts the subset of Cycles the run loop
	// skipped in closed form because the machine was provably quiescent
	// (idle-cycle elision); it is always zero when the pipeline steps every
	// cycle (its elision oracle) and is a property of the simulator, not the
	// simulated machine — every other counter is bit-identical with elision
	// on or off.
	Cycles        uint64
	CyclesElided  uint64
	Retired       uint64
	RetiredLoads  uint64
	RetiredStores uint64
	Fetched       uint64
	Dispatched    uint64
	Issued        uint64
	Squashed      uint64

	// Flushes.
	MispredictFlushes uint64
	ViolationFlushes  uint64
	FullSFCFlushes    uint64 // partial flushes upgraded to full SFC flushes

	// Memory-dependence violations by kind (detected, i.e. causing recovery).
	TrueViolations   uint64
	AntiViolations   uint64
	OutputViolations uint64

	// Replays (instructions dropped by the memory unit and re-executed).
	ReplaySFCConflict uint64 // stores: SFC set conflict
	ReplayMDTConflict uint64 // loads+stores: MDT set conflict
	ReplayCorrupt     uint64 // loads: SFC corruption
	ReplayPartial     uint64 // loads: SFC partial match (replay policy only)

	// SVWFiltered counts loads exempted from MDT allocation by the §4
	// store-vulnerability-window search filter.
	SVWFiltered uint64

	// ROB-head bypasses (§2.2 lockup avoidance).
	HeadBypassLoads  uint64
	HeadBypassStores uint64

	// Store-to-load forwarding.
	SFCForwards      uint64 // loads fully satisfied by the SFC
	SFCPartialMerges uint64 // loads merging SFC and cache bytes
	LSQForwards      uint64
	LSQPartialMerges uint64

	// Branches (correct-path conditional branches).
	CondBranches    uint64
	Mispredicts     uint64
	OracleCorrected uint64

	// Dependence predictor.
	PredViolationsRecorded uint64
	PredTagStallCycles     uint64
	PredConsumerWaits      uint64

	// Dispatch stalls by cause (cycles with at least one stall).
	StallROBFull  uint64
	StallLSQFull  uint64
	StallFIFOFull uint64
	StallPhysRegs uint64
	StallTags     uint64

	// Occupancy.
	OccupancySum uint64 // sum over cycles of ROB occupancy
	MaxOccupancy uint64
	SFCLiveSum   uint64 // sum over flushes of live SFC stores at flush time

	// Associative-search work: entries/ways examined by the memory
	// subsystem's searches — the dynamic-power proxy of paper §4.
	SearchEntriesLSQ uint64
	SearchEntriesMDT uint64
	SearchEntriesSFC uint64

	// Caches.
	L1IHits, L1IMisses uint64
	L1DHits, L1DMisses uint64
	L2Hits, L2Misses   uint64

	// Branch predictor internals (surfaced from bpred.Counters; DESIGN.md
	// §14). BPredBaseWrong counts the predictor's own wrong directions
	// before oracle correction; the TAGE-only counters stay zero under
	// gshare.
	BPredLookups        uint64
	BPredBaseWrong      uint64
	BPredTaggedProvider uint64
	BPredAltUsed        uint64
	BPredAllocs         uint64

	// L1D stride prefetcher (zero when disabled). Issued counts fills
	// actually sent to the hierarchy; Useful counts demand hits on
	// still-prefetch-tagged L1D lines; Late counts demand hits that had to
	// wait out an in-flight fill; Redundant counts candidates already
	// resident.
	PrefetchIssued    uint64
	PrefetchUseful    uint64
	PrefetchLate      uint64
	PrefetchRedundant uint64

	// PCAX-style pre-probe (zero when disabled). Lookups counts load
	// dispatches consulting the address predictor; Hits/Misses score the
	// confident predictions at execute; Warms counts pre-probes that found
	// the predicted address already resident in the SFC/MDT.
	PreprobeLookups uint64
	PreprobeHits    uint64
	PreprobeMisses  uint64
	PreprobeWarms   uint64
}

// AvgOccupancy returns the mean ROB occupancy per cycle.
func (s *Stats) AvgOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Cycles)
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// ViolationRate returns detected memory-dependence violations per retired
// load or store, as a fraction (the paper quotes 0.93% and 0.11%).
func (s *Stats) ViolationRate() float64 {
	mem := s.RetiredLoads + s.RetiredStores
	if mem == 0 {
		return 0
	}
	return float64(s.TrueViolations+s.AntiViolations+s.OutputViolations) / float64(mem)
}

// AntiOutputViolationRate returns anti+output violations per retired memory
// instruction.
func (s *Stats) AntiOutputViolationRate() float64 {
	mem := s.RetiredLoads + s.RetiredStores
	if mem == 0 {
		return 0
	}
	return float64(s.AntiViolations+s.OutputViolations) / float64(mem)
}

// StoreSFCConflictRate returns the fraction of dynamic (retired) stores that
// were replayed at least once... measured as SFC-conflict replays per
// retired store (can exceed 1 when stores replay repeatedly; the paper
// quotes ">50% of dynamic stores must be replayed" for bzip2).
func (s *Stats) StoreSFCConflictRate() float64 {
	if s.RetiredStores == 0 {
		return 0
	}
	return float64(s.ReplaySFCConflict) / float64(s.RetiredStores)
}

// LoadMDTConflictRate returns MDT-conflict replays per retired load.
func (s *Stats) LoadMDTConflictRate() float64 {
	if s.RetiredLoads == 0 {
		return 0
	}
	return float64(s.ReplayMDTConflict) / float64(s.RetiredLoads)
}

// LoadCorruptionRate returns SFC-corruption replays per retired load (the
// paper quotes "roughly 20% of all dynamic loads" for vpr_route, ammp,
// equake).
func (s *Stats) LoadCorruptionRate() float64 {
	if s.RetiredLoads == 0 {
		return 0
	}
	return float64(s.ReplayCorrupt) / float64(s.RetiredLoads)
}

// SearchWorkPerMemOp returns associative-search entries examined per retired
// memory instruction (LSQ CAM activity vs MDT+SFC way reads).
func (s *Stats) SearchWorkPerMemOp() float64 {
	mem := s.RetiredLoads + s.RetiredStores
	if mem == 0 {
		return 0
	}
	return float64(s.SearchEntriesLSQ+s.SearchEntriesMDT+s.SearchEntriesSFC) / float64(mem)
}

// MispredictRate returns final mispredictions per correct-path conditional
// branch.
func (s *Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// PrefetchAccuracy returns useful prefetches per issued prefetch.
func (s *Stats) PrefetchAccuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchIssued)
}

// L1DDemandMissRate returns L1D demand misses per demand access (prefetch
// fills are not demand accesses and are excluded by construction).
func (s *Stats) L1DDemandMissRate() float64 {
	total := s.L1DHits + s.L1DMisses
	if total == 0 {
		return 0
	}
	return float64(s.L1DMisses) / float64(total)
}

// PreprobeHitRate returns correct address predictions per confident
// prediction made.
func (s *Stats) PreprobeHitRate() float64 {
	preds := s.PreprobeHits + s.PreprobeMisses
	if preds == 0 {
		return 0
	}
	return float64(s.PreprobeHits) / float64(preds)
}

// String summarizes the headline numbers.
func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d retired=%d IPC=%.3f viol(t/a/o)=%d/%d/%d replays(sfc/mdt/corrupt)=%d/%d/%d mispred=%.2f%%",
		s.Cycles, s.Retired, s.IPC(),
		s.TrueViolations, s.AntiViolations, s.OutputViolations,
		s.ReplaySFCConflict, s.ReplayMDTConflict, s.ReplayCorrupt,
		100*s.MispredictRate())
}

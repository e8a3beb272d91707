package pipeline

import (
	"sfcmdt/internal/core"
	"sfcmdt/internal/seqnum"
)

// replayCause identifies why the memory unit dropped an instruction.
type replayCause uint8

const (
	replayNone replayCause = iota
	replaySFCConflict
	replayMDTConflict
	replayCorrupt
	replayPartial
)

// memOutcome is the result of executing a load or store in the memory unit.
type memOutcome struct {
	replay    bool
	cause     replayCause
	value     uint64 // raw little-endian load bytes
	latency   int    // cycles from issue to completion
	violation *core.Violation
	forwarded bool // value (fully) bypassed from an in-flight store
}

// memSystem abstracts the memory subsystems the pipeline can host.
type memSystem interface {
	// canDispatch* report whether buffering resources are available;
	// dispatch* commit the allocation (must succeed after a true can*).
	canDispatchLoad() bool
	canDispatchStore() bool
	dispatchLoad(seq seqnum.Seq, pc uint64)
	dispatchStore(seq seqnum.Seq, pc uint64)

	// executeLoad and executeStore run at issue time, once the address
	// (and, for stores, the data) is known. head marks an instruction at
	// the head of the ROB, which bypasses the MDT and SFC (§2.2).
	executeLoad(e *entry, head bool) memOutcome
	executeStore(e *entry, head bool) memOutcome

	// preRetireLoad runs before a load's retirement validation; a
	// non-nil violation aborts the retirement and triggers recovery from
	// the load itself (used by the value-replay subsystem, whose
	// disambiguation happens at retirement).
	preRetireLoad(e *entry) *core.Violation

	// Retirement hooks. retireStore returns the (addr, size, value) to
	// commit to the memory image.
	retireLoad(e *entry) (freedEntries bool)
	retireStore(e *entry) (addr uint64, size int, value uint64, freedEntries bool, err error)

	// preprobe speculatively warms disambiguation state for a *predicted*
	// load address (PCAX-style pre-probe at dispatch; frontend.go). It must
	// be provably harmless: only validated-before-use hints (way memos) may
	// change, never forwarding or disambiguation outcomes. Returns whether
	// the address was present (pre-probe warm accounting only).
	preprobe(addr uint64) bool

	// squashFrom removes speculative state for seq >= from.
	squashFrom(from seqnum.Seq)

	// onPartialFlush runs after a pipeline flush of the sequence-number
	// window [lo, hi]; liveSFCStores is the number of surviving stores
	// with SFC-resident bytes.
	onPartialFlush(lo, hi seqnum.Seq, liveSFCStores int)
}

// ---------------------------------------------------------------------------
// MDT + store FIFO: the half the paper's design and its multi-version
// alternative share. It owns dispatch (store-FIFO slots; loads need none),
// the ROB-head bypass (§2.2), load retirement and the SFC's forwarding
// outcome. Each embedding system adds its own SFC.

type mdtFIFO struct {
	p    *Pipeline
	mdt  *core.MDT
	fifo *core.StoreFIFO
}

func newMDTFIFO(p *Pipeline, trueOnly bool) mdtFIFO {
	m := mdtFIFO{p: p, mdt: core.NewMDT(p.cfg.MDT), fifo: core.NewStoreFIFO(p.cfg.ROBSize)}
	m.mdt.TrueOnly = trueOnly
	m.mdt.SingleLoadOpt = p.cfg.Recovery.SingleLoadOpt
	return m
}

// reset readies the half for a run of p, keeping its allocations, and
// reports false when its geometry no longer matches p's configuration. The
// MDT keeps the TrueOnly policy it was built with.
func (m *mdtFIFO) reset(p *Pipeline) bool {
	if m.mdt.Config() != p.cfg.MDT || m.fifo.Cap() != p.cfg.ROBSize {
		return false
	}
	m.p = p
	m.mdt.Reset()
	m.mdt.SingleLoadOpt = p.cfg.Recovery.SingleLoadOpt
	m.fifo.Reset()
	return true
}

func (m *mdtFIFO) canDispatchLoad() bool  { return true }
func (m *mdtFIFO) canDispatchStore() bool { return m.fifo.Len() < m.fifo.Cap() }

func (m *mdtFIFO) dispatchLoad(seq seqnum.Seq, pc uint64) {}

func (m *mdtFIFO) dispatchStore(seq seqnum.Seq, pc uint64) {
	if !m.fifo.Dispatch(seq) {
		panic("pipeline: store FIFO dispatch after canDispatchStore")
	}
}

// bypassLoad executes a load at the ROB head (§2.2): all older stores have
// retired and committed, so the cache-memory hierarchy is authoritative.
func (m *mdtFIFO) bypassLoad(e *entry) memOutcome {
	m.p.stats.HeadBypassLoads++
	return m.forward(e, core.SFCReadResult{Status: core.SFCMiss})
}

// bypassStore executes a store at the ROB head.
func (m *mdtFIFO) bypassStore(e *entry) memOutcome {
	p := m.p
	p.stats.HeadBypassStores++
	m.fifo.Execute(e.seq, e.memAddr, e.memSize, e.memVal)
	// The bypassing store's bytes are nowhere in the SFC, so commit them to
	// memory immediately: the store is the oldest in-flight instruction,
	// can no longer be squashed, and retires as soon as it completes, so
	// younger loads reading memory observe it correctly. (Retirement
	// rewrites the same bytes, harmlessly.)
	p.memory.WriteUint(e.memAddr, e.memSize, e.memVal)
	// It must still check for younger loads that executed too early with a
	// stale value (read-only MDT probe).
	return memOutcome{latency: aguLat, violation: m.mdt.CheckStoreAtHead(e.seq, e.pc, e.memAddr, e.memSize)}
}

// forward completes a load from its SFC read: a full match forwards, a
// partial one merges the missing bytes from the cache hierarchy, and a miss
// reads the hierarchy.
func (m *mdtFIFO) forward(e *entry, sres core.SFCReadResult) memOutcome {
	p := m.p
	switch sres.Status {
	case core.SFCFull:
		// The SFC is accessed in parallel with the L1, so data is
		// available at L1-hit time regardless of cache state.
		p.demandLoadLatency(e.pc, e.memAddr) // keep cache tag state warm
		p.stats.SFCForwards++
		return memOutcome{value: sres.Word, latency: aguLat + p.hier.Config().L1HitCycles, forwarded: true}
	case core.SFCPartial:
		// One word read, one masked merge.
		lat := aguLat + p.demandLoadLatency(e.pc, e.memAddr)
		memv := p.memory.ReadUint(e.memAddr, e.memSize)
		p.stats.SFCPartialMerges++
		return memOutcome{value: sres.Word | memv&^core.ExpandByteMask(sres.ValidMask), latency: lat}
	default: // SFCMiss
		lat := aguLat + p.demandLoadLatency(e.pc, e.memAddr)
		return memOutcome{value: p.memory.ReadUint(e.memAddr, e.memSize), latency: lat}
	}
}

// Only the MDT's way memo is warmed here; the multi-version SFC keys its
// versions by sequence number, which is unknown at dispatch.
func (m *mdtFIFO) preprobe(addr uint64) bool { return m.mdt.Preprobe(addr) }

func (m *mdtFIFO) preRetireLoad(e *entry) *core.Violation { return nil }

func (m *mdtFIFO) retireLoad(e *entry) bool {
	return m.mdt.RetireLoad(e.seq, e.memAddr, e.memSize)
}

// The MDT ignores partial flushes (§2.2).
func (m *mdtFIFO) squashFrom(from seqnum.Seq) { m.fifo.SquashFrom(from) }

// Only the single-version SFC reacts to partial flushes; mdtSFCSystem
// overrides this.
func (m *mdtFIFO) onPartialFlush(seqnum.Seq, seqnum.Seq, int) {}

// ---------------------------------------------------------------------------
// MDT + SFC + store FIFO memory subsystem (the paper's design).

type mdtSFCSystem struct {
	mdtFIFO
	sfc *core.SFC
}

func newMDTSFCSystem(p *Pipeline) *mdtSFCSystem {
	return &mdtSFCSystem{mdtFIFO: newMDTFIFO(p, false), sfc: core.NewSFC(p.cfg.SFC)}
}

// setBound advances the MDT/SFC reclamation bound to the oldest in-flight
// sequence number; called by the pipeline once per cycle.
func (m *mdtSFCSystem) setBound(oldest seqnum.Seq) {
	m.mdt.SetBound(oldest)
	m.sfc.SetBound(oldest)
}

func (m *mdtSFCSystem) executeLoad(e *entry, head bool) memOutcome {
	if head {
		return m.bypassLoad(e)
	}
	p := m.p
	// §4 search filtering (store-vulnerability-window test): if every
	// older store has already executed, no later-completing older store
	// can flag this load, so it need not occupy an MDT entry. Anti
	// violations are still caught: the filtered load must still compare
	// against the entry's store sequence number if one exists.
	filtered := false
	if p.cfg.SVWFilter {
		if first, ok := m.fifo.FirstUnexecuted(); !ok || seqnum.Before(e.seq, first) {
			filtered = true
			p.stats.SVWFiltered++
		}
	}
	var anti *core.Violation
	if filtered {
		anti = m.mdt.CheckLoadAnti(e.seq, e.pc, e.memAddr, e.memSize)
	} else {
		res := m.mdt.AccessLoad(e.seq, e.pc, e.memAddr, e.memSize)
		if res.Conflict {
			return memOutcome{replay: true, cause: replayMDTConflict}
		}
		anti = res.Violation
	}
	if anti != nil {
		// Anti-dependence violation: the load itself will be flushed; no
		// value matters.
		return memOutcome{violation: anti, latency: aguLat + intLat}
	}
	sres := m.sfc.LoadRead(e.memAddr, e.memSize)
	switch {
	case sres.Status == core.SFCCorrupt:
		m.mdt.LoadDropped(e.seq, e.memAddr, e.memSize)
		return memOutcome{replay: true, cause: replayCorrupt}
	case sres.Status == core.SFCPartial && p.cfg.ReplayOnPartial:
		m.mdt.LoadDropped(e.seq, e.memAddr, e.memSize)
		return memOutcome{replay: true, cause: replayPartial}
	}
	return m.forward(e, sres)
}

func (m *mdtSFCSystem) executeStore(e *entry, head bool) memOutcome {
	if head {
		return m.bypassStore(e)
	}
	p := m.p
	// Probe the SFC first so a set conflict drops the store before the MDT
	// is updated.
	if !m.sfc.CanWrite(e.memAddr) {
		m.sfc.StoreConflicts++
		return memOutcome{replay: true, cause: replaySFCConflict}
	}
	res := m.mdt.AccessStore(e.seq, e.pc, e.memAddr, e.memSize)
	if res.Conflict {
		return memOutcome{replay: true, cause: replayMDTConflict}
	}
	out := memOutcome{latency: aguLat + sfcTagCheckExtra}
	if res.Violation != nil {
		if res.Violation.Kind == core.OutputViolation && p.cfg.Recovery.CorruptOnOutput {
			// §2.4.2: poison the entry instead of flushing; the normal
			// corruption machinery handles dependent loads. The
			// dependence predictor is still trained.
			m.sfc.CorruptWord(e.memAddr)
			p.pred.RecordViolation(res.Violation.Kind, res.Violation.ProducerPC, res.Violation.ConsumerPC)
			p.stats.OutputViolations++
		} else {
			out.violation = res.Violation
		}
	}
	if !m.sfc.StoreWrite(e.seq, e.memAddr, e.memSize, e.memVal) {
		panic("pipeline: SFC write failed after CanWrite")
	}
	e.wroteSFC = true
	p.sfcLiveStores++
	m.fifo.Execute(e.seq, e.memAddr, e.memSize, e.memVal)
	return out
}

func (m *mdtSFCSystem) preprobe(addr uint64) bool {
	hit := m.sfc.Preprobe(addr)
	if m.mdtFIFO.preprobe(addr) {
		hit = true
	}
	return hit
}

func (m *mdtSFCSystem) retireStore(e *entry) (uint64, int, uint64, bool, error) {
	addr, size, val, err := m.fifo.Retire(e.seq)
	if err != nil {
		return 0, 0, 0, false, err
	}
	freed := m.sfc.RetireStore(e.seq, addr)
	if m.mdt.RetireStore(e.seq, addr, size) {
		freed = true
	}
	return addr, size, val, freed, nil
}

func (m *mdtSFCSystem) onPartialFlush(lo, hi seqnum.Seq, liveSFCStores int) {
	if liveSFCStores == 0 {
		// No completed unretired stores remain: every SFC-resident value
		// either belongs to a retired store (already freed) or a canceled
		// one, so the SFC can be flushed wholesale (§2.3 full-flush rule).
		m.sfc.Flush()
		m.p.stats.FullSFCFlushes++
		return
	}
	m.sfc.RecordPartialFlush(lo, hi)
}

// ---------------------------------------------------------------------------
// Idealized LSQ memory subsystem (the baseline).

type lsqSystem struct {
	p   *Pipeline
	lsq *core.LSQ
}

func newLSQSystem(p *Pipeline) *lsqSystem {
	return &lsqSystem{p: p, lsq: core.NewLSQ(p.cfg.LSQ)}
}

func (m *lsqSystem) canDispatchLoad() bool  { return m.lsq.Loads() < m.lsq.Config().LoadEntries }
func (m *lsqSystem) canDispatchStore() bool { return m.lsq.Stores() < m.lsq.Config().StoreEntries }

func (m *lsqSystem) dispatchLoad(seq seqnum.Seq, pc uint64) {
	if !m.lsq.DispatchLoad(seq, pc) {
		panic("pipeline: LSQ load dispatch after canDispatchLoad")
	}
}

func (m *lsqSystem) dispatchStore(seq seqnum.Seq, pc uint64) {
	if !m.lsq.DispatchStore(seq, pc) {
		panic("pipeline: LSQ store dispatch after canDispatchStore")
	}
}

func (m *lsqSystem) memRead(addr uint64, size int) uint64 { return m.p.memory.ReadUint(addr, size) }

func (m *lsqSystem) executeLoad(e *entry, head bool) memOutcome {
	p := m.p
	res, err := m.lsq.ExecuteLoad(e.seq, e.memAddr, e.memSize, m.memRead)
	if err != nil {
		p.fail(err)
		return memOutcome{}
	}
	lat := aguLat
	if res.Forwarded {
		lat += bypassLat
		p.stats.LSQForwards++
	} else {
		lat += p.demandLoadLatency(e.pc, e.memAddr)
		if res.Partial {
			p.stats.LSQPartialMerges++
		}
	}
	return memOutcome{value: res.Value, latency: lat, forwarded: res.Forwarded}
}

func (m *lsqSystem) executeStore(e *entry, head bool) memOutcome {
	p := m.p
	viol, err := m.lsq.ExecuteStore(e.seq, e.memAddr, e.memSize, e.memVal, m.memRead)
	if err != nil {
		p.fail(err)
		return memOutcome{}
	}
	return memOutcome{latency: aguLat, violation: viol}
}

// The LSQ has no set-associative disambiguation state to warm.
func (m *lsqSystem) preprobe(addr uint64) bool { return false }

func (m *lsqSystem) preRetireLoad(e *entry) *core.Violation { return nil }

func (m *lsqSystem) retireLoad(e *entry) bool {
	if err := m.lsq.RetireLoad(e.seq); err != nil {
		m.p.fail(err)
	}
	return false
}

func (m *lsqSystem) retireStore(e *entry) (uint64, int, uint64, bool, error) {
	addr, size, val, err := m.lsq.RetireStore(e.seq)
	return addr, size, val, false, err
}

func (m *lsqSystem) squashFrom(from seqnum.Seq) { m.lsq.SquashFrom(from) }

func (m *lsqSystem) onPartialFlush(seqnum.Seq, seqnum.Seq, int) {}

// ---------------------------------------------------------------------------
// Value-replay memory subsystem (§4 related work, Cain & Lipasti): the LSQ
// without its load-queue search. Stores record themselves and search
// nothing; disambiguation re-executes every load at retirement.

type valueReplaySystem struct {
	lsqSystem // bound to vr's embedded LSQ
	vr        *core.ValueReplay
}

func newValueReplaySystem(p *Pipeline) *valueReplaySystem {
	vr := core.NewValueReplay(p.cfg.LSQ)
	return &valueReplaySystem{lsqSystem: lsqSystem{p: p, lsq: &vr.LSQ}, vr: vr}
}

func (m *valueReplaySystem) executeStore(e *entry, head bool) memOutcome {
	if err := m.vr.ExecuteStore(e.seq, e.memAddr, e.memSize, e.memVal); err != nil {
		m.p.fail(err)
		return memOutcome{}
	}
	return memOutcome{latency: aguLat}
}

func (m *valueReplaySystem) preRetireLoad(e *entry) *core.Violation {
	// The retirement-time replay accesses the D-cache again — the extra
	// port pressure the paper's §4 discussion points at.
	m.p.hier.DataLatency(e.memAddr)
	v, err := m.vr.RetireLoad(e.seq, m.memRead)
	if err != nil {
		m.p.fail(err)
		return nil
	}
	return v
}

func (m *valueReplaySystem) retireLoad(e *entry) bool { return false } // popped in preRetireLoad

// ---------------------------------------------------------------------------
// MDT + multi-version SFC memory subsystem (§4 multiversion alternative):
// store renaming makes anti and output violations impossible, the corruption
// machinery disappears (canceled versions are deleted exactly), and only
// true violations remain for the MDT.

type mvSFCSystem struct {
	mdtFIFO
	sfc *core.MVSFC
}

func newMVSFCSystem(p *Pipeline) *mvSFCSystem {
	return &mvSFCSystem{mdtFIFO: newMDTFIFO(p, true), sfc: core.NewMVSFC(p.cfg.MVSFC)}
}

func (m *mvSFCSystem) setBound(oldest seqnum.Seq) {
	m.mdt.SetBound(oldest)
	m.sfc.SetBound(oldest)
}

func (m *mvSFCSystem) executeLoad(e *entry, head bool) memOutcome {
	if head {
		return m.bypassLoad(e)
	}
	// The MDT is TrueOnly here, so a load meets no anti violation.
	if m.mdt.AccessLoad(e.seq, e.pc, e.memAddr, e.memSize).Conflict {
		return memOutcome{replay: true, cause: replayMDTConflict}
	}
	return m.forward(e, m.sfc.LoadRead(e.seq, e.memAddr, e.memSize))
}

func (m *mvSFCSystem) executeStore(e *entry, head bool) memOutcome {
	if head {
		return m.bypassStore(e)
	}
	if !m.sfc.CanWrite(e.seq, e.memAddr) {
		m.sfc.StoreConflicts++
		return memOutcome{replay: true, cause: replaySFCConflict}
	}
	res := m.mdt.AccessStore(e.seq, e.pc, e.memAddr, e.memSize)
	if res.Conflict {
		return memOutcome{replay: true, cause: replayMDTConflict}
	}
	if !m.sfc.StoreWrite(e.seq, e.memAddr, e.memSize, e.memVal) {
		panic("pipeline: MVSFC write failed after CanWrite")
	}
	m.fifo.Execute(e.seq, e.memAddr, e.memSize, e.memVal)
	return memOutcome{latency: aguLat + sfcTagCheckExtra, violation: res.Violation}
}

func (m *mvSFCSystem) retireStore(e *entry) (uint64, int, uint64, bool, error) {
	addr, size, val, err := m.fifo.Retire(e.seq)
	if err != nil {
		return 0, 0, 0, false, err
	}
	freed := m.sfc.RetireStore(e.seq, addr)
	if m.mdt.RetireStore(e.seq, addr, size) {
		freed = true
	}
	return addr, size, val, freed, nil
}

func (m *mvSFCSystem) squashFrom(from seqnum.Seq) {
	m.mdtFIFO.squashFrom(from)
	m.sfc.SquashFrom(from) // exact version deletion: no corruption needed
}

var (
	_ memSystem = (*mdtSFCSystem)(nil)
	_ memSystem = (*lsqSystem)(nil)
	_ memSystem = (*valueReplaySystem)(nil)
	_ memSystem = (*mvSFCSystem)(nil)
)

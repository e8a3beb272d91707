package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/bpred"
	"sfcmdt/internal/core"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/mem"
	"sfcmdt/internal/metrics"
	"sfcmdt/internal/prefetch"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sched"
	"sfcmdt/internal/seqnum"
)

// physReg indexes the physical register file; -1 means none.
type physReg int32

const noPhys physReg = -1

// entry is one in-flight dynamic instruction (a ROB slot).
type entry struct {
	seq  seqnum.Seq
	pc   uint64
	inst isa.Inst
	dec  *isa.DecodedInst // shared read-only pre-decoded metadata

	traceIdx   int // index into the golden trace; -1 on the wrong path
	predNextPC uint64
	ghrBefore  uint32 // speculative global history before this instruction
	ghrAfter   uint32

	// Rename state. oldPhys is destArch's mapping before this instruction
	// renamed: retirement frees it, and recovery writes it back to the RAT.
	srcPhys  [2]physReg
	nSrc     int
	newPhys  physReg
	oldPhys  physReg
	destArch isa.Reg
	hasDest  bool

	// Wakeup-scheduler state: the ROB ring slot this entry occupies (its
	// bit index in the ready bitset) and how many of its source registers
	// are still waiting for a producer's writeback.
	slot      int32
	waitCount int8

	issued    bool
	completed bool
	squashed  bool

	result uint64

	// Memory state.
	isLoad, isStore bool
	memAddr         uint64
	memSize         int
	memVal          uint64 // store data (masked) or raw load bytes
	forwarded       bool

	// Pre-probe state (frontend.go): the address predicted at dispatch,
	// validated (and cleared) at the load's first execute.
	preprobeAddr uint64
	preprobed    bool

	// Control state.
	isCond, isJump bool
	actualTaken    bool
	actualNext     uint64

	// Dependence tags.
	consumeTag  core.TagID
	produceTag  core.TagID
	consumeHeld bool

	// Pending violation, detected at execute, acted on at completion.
	violation *core.Violation

	// wroteSFC marks a store whose bytes are in the SFC (not yet retired
	// or squashed); the pipeline counts these to decide whether a partial
	// flush can be upgraded to a full SFC flush.
	wroteSFC bool

	stall   bool
	replays int

	// Pool bookkeeping. inWheel marks an entry with a pending completion
	// event: recovery must not recycle it until the wheel drains it.
	// pooled makes freeEntry idempotent (a squashed in-wheel entry is
	// offered to the pool both at wheel drain and at Pipeline.Reset).
	inWheel bool
	pooled  bool
}

// fqEntry is a fetched, not-yet-dispatched instruction.
type fqEntry struct {
	seq        seqnum.Seq
	pc         uint64
	dec        *isa.DecodedInst
	traceIdx   int
	predNextPC uint64
	ghrBefore  uint32
	ghrAfter   uint32
	readyAt    uint64 // earliest dispatch cycle (front-end depth)
	isHalt     bool
}

// waiter records one entry waiting for a wakeup — a source register's
// writeback or a dependence tag turning ready. Sequence numbers are unique
// within a run, so a record whose entry was recycled (or squashed) no longer
// matches and is skipped at drain time; lists never need eager removal.
type waiter struct {
	e   *entry
	seq seqnum.Seq
}

// wrongPathNop is the decoded instruction fed to fetch when a wrong-path PC
// leaves the code segment.
var wrongPathNop = isa.PredecodeInst(isa.Inst{Op: isa.OpNop})

// Pipeline is one configured processor instance bound to one program's
// correct-path reference stream (a golden trace or a replay view).
type Pipeline struct {
	cfg    Config
	img    *prog.Image
	src    ReplaySource
	srcLen int            // src.Len()
	stream *replay.Stream // src's columns when src is a *replay.View, else nil
	memory *mem.Sparse
	hier   *mem.Hierarchy
	bp     bpred.Predictor
	bpc    *bpred.Counters // p.bp.Counters(), cached
	pred   *core.Predictor

	// Frontend realism state (frontend.go); nil when the feature is off.
	pf        *prefetch.Stride
	app       *core.AddrPred
	pfPend    [pfPendSize]pfPending
	pfPendIdx int
	pfBlockSh uint
	msys      memSystem
	seqs      *seqnum.Allocator
	stats     metrics.Stats

	// Rename state.
	rat       []physReg
	physVal   []uint64
	physReady []bool
	freePhys  []physReg

	rob robQueue
	fq  fqQueue

	// Wakeup-driven scheduler state. readyBits holds one bit per ROB ring
	// slot, set exactly when that slot's entry could issue (ignoring the
	// per-cycle FU/memory-port limits and the head-of-ROB bypass); issue
	// walks only the set bits in age order. consumers[r] lists entries
	// waiting on physical register r's writeback; tagWaiters[t] lists
	// predicted consumers waiting on dependence tag t. Waiter records
	// self-invalidate via sequence numbers, so the lists are append-only
	// between drains and are never searched.
	readyBits  []uint64
	consumers  [][]waiter
	tagWaiters [][]waiter

	// Pre-decoded static code segment, shared read-only with the golden
	// trace (and through it with every other run of the same workload).
	dec       []isa.DecodedInst
	codeBase  uint64
	codeLimit uint64

	// Completion events, held in a fixed-horizon timing wheel keyed by
	// absolute cycle (allocation-free in steady state).
	events *sched.Wheel[*entry]

	// pool is the entry free list; allocEntry/freeEntry recycle ROB slots
	// so steady-state dispatch performs no heap allocation.
	pool []*entry

	cycle           uint64
	fetchPC         uint64
	fetchStallUntil uint64
	fetchTraceIdx   int
	onCorrectPath   bool
	fetchHalted     bool

	// dbg, when non-nil, receives a trace of memory-unit and recovery
	// events (testing/debugging aid).
	dbg func(format string, args ...any)

	needsBound bool // memory subsystem wants per-cycle reclamation bounds

	retired         int // == next trace index to retire
	sfcLiveStores   int // stores that have written the SFC and not yet retired or squashed
	stalled         int // ROB entries with their replay stall bit set
	lastRetireCycle uint64
	err             error
	done            bool
}

// New builds a pipeline for the given program and configuration. Its
// reference stream is materialized internally with the functional model
// (replay.Materialize, at most cfg.MaxInsts instructions).
func New(cfg Config, img *prog.Image) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stream, err := replay.Materialize(img, cfg.MaxInsts)
	if err != nil {
		return nil, err
	}
	return NewWithTrace(cfg, img, stream.All())
}

// NewWithTrace builds a pipeline against a precomputed reference stream —
// a golden *arch.Trace (lockstep oracle) or a *replay.View (shared columnar
// stream). The harness reuses one source across configurations.
func NewWithTrace(cfg Config, img *prog.Image, src ReplaySource) (*Pipeline, error) {
	p := &Pipeline{}
	if err := p.Reset(cfg, img, src); err != nil {
		return nil, err
	}
	return p, nil
}

// StartState is the warm architectural state a pipeline starts from when its
// run begins mid-program: register file, first PC to fetch, and memory
// contents at the start point. It is produced by functional fast-forward or
// a restored checkpoint (snapshot.State.StartState); the trace passed
// alongside it must begin at the same point (arch.RunTraceFrom on the same
// machine). Mem is read-only here — the pipeline copies it into its own
// memory, so one StartState can seed many configs concurrently.
type StartState struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *mem.Sparse
}

// NewFrom builds a pipeline that starts from a warm mid-program state
// instead of the image's entry point. Everything microarchitectural — ROB,
// sequence numbers, caches, branch predictor, dependence predictor, MDT/SFC
// — starts cold, exactly as in New; only the architectural state (registers,
// PC, memory) is warm.
func NewFrom(cfg Config, img *prog.Image, src ReplaySource, st *StartState) (*Pipeline, error) {
	p := &Pipeline{}
	if err := p.ResetFrom(cfg, img, src, st); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset rebinds the pipeline to a configuration, program image, and
// reference stream, reusing every allocation whose geometry still fits
// (tables, rings, the event wheel, pooled entries, the sparse memory's page
// map). A reset pipeline is observably identical to a freshly-constructed
// one — the harness relies on this to recycle pipelines across
// (workload × variant) runs.
func (p *Pipeline) Reset(cfg Config, img *prog.Image, src ReplaySource) error {
	return p.reset(cfg, img, src, nil)
}

// ResetFrom is Reset for a run that starts from a warm mid-program state (see
// NewFrom). A nil st is exactly Reset. The same recycling guarantee holds:
// ResetFrom on a used pipeline is observably identical to NewFrom.
func (p *Pipeline) ResetFrom(cfg Config, img *prog.Image, src ReplaySource, st *StartState) error {
	return p.reset(cfg, img, src, st)
}

func (p *Pipeline) reset(cfg Config, img *prog.Image, src ReplaySource, st *StartState) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.cfg = cfg
	if p.cfg.maxCycles == 0 {
		p.cfg.maxCycles = 400*cfg.MaxInsts + 2_000_000
	}
	p.img = img
	p.src = src
	p.srcLen = src.Len()
	// A replay view's columns are read directly by fetch and retirement;
	// any other source (the golden trace) answers through the interface.
	p.stream = nil
	if v, ok := src.(*replay.View); ok {
		p.stream = v.Stream()
	}

	if st != nil {
		if p.memory == nil {
			p.memory = mem.NewSparse()
		}
		p.memory.CopyFrom(st.Mem)
	} else if p.memory == nil {
		p.memory = arch.LoadMemory(img)
	} else {
		arch.LoadMemoryInto(p.memory, img)
	}
	if p.hier == nil {
		p.hier = mem.NewHierarchy(mem.DefaultHierarchy())
		for 1<<p.pfBlockSh < p.hier.Config().L1D.LineBytes {
			p.pfBlockSh++
		}
	} else {
		p.hier.Reset()
	}
	if p.bp == nil || p.bp.Config() != cfg.BPred {
		p.bp = bpred.New(cfg.BPred)
	} else {
		p.bp.Reset()
	}
	p.bpc = p.bp.Counters()
	switch {
	case cfg.Prefetch.Kind == prefetch.KindNone:
		p.pf = nil
	case p.pf == nil || p.pf.Config() != cfg.Prefetch:
		p.pf = prefetch.NewStride(cfg.Prefetch)
	default:
		p.pf.Reset()
	}
	for i := range p.pfPend {
		p.pfPend[i] = pfPending{}
	}
	p.pfPendIdx = 0
	switch {
	case !cfg.Preprobe.Enabled:
		p.app = nil
	case p.app == nil || p.app.Config() != cfg.Preprobe:
		p.app = core.NewAddrPred(cfg.Preprobe)
	default:
		p.app.Reset()
	}
	if p.pred == nil || !p.pred.ResetFor(cfg.Pred) {
		p.pred = core.NewPredictor(cfg.Pred)
	}
	if p.seqs == nil {
		p.seqs = seqnum.NewAllocator()
	} else {
		p.seqs.Reset()
	}
	p.resetMemSystem()

	nPhys := cfg.ROBSize + isa.NumRegs + 8
	if len(p.physVal) != nPhys {
		p.physVal = make([]uint64, nPhys)
		p.physReady = make([]bool, nPhys)
		p.freePhys = make([]physReg, 0, nPhys)
	} else {
		for i := range p.physVal {
			p.physVal[i] = 0
			p.physReady[i] = false
		}
		p.freePhys = p.freePhys[:0]
	}
	if p.rat == nil {
		p.rat = make([]physReg, isa.NumRegs)
	}
	for r := 0; r < isa.NumRegs; r++ {
		p.rat[r] = physReg(r)
		p.physReady[r] = true
	}
	if st != nil {
		// Warm start: the architectural registers carry the state at the
		// start point (register 0 is zero there by the ISA's invariant).
		for r := 0; r < isa.NumRegs; r++ {
			p.physVal[r] = st.Regs[r]
		}
	} else {
		// Architectural register 29 is the conventional stack pointer.
		p.physVal[29] = prog.DefaultStackTop
	}
	for i := nPhys - 1; i >= isa.NumRegs; i-- {
		p.freePhys = append(p.freePhys, physReg(i))
	}

	// Recycle in-flight entries from an interrupted previous run: every ROB
	// resident, then every wheel resident (freeEntry is idempotent, so
	// entries present in both are pooled once).
	for i := 0; i < p.rob.len(); i++ {
		p.freeEntry(p.rob.at(i))
	}
	p.rob.init(cfg.ROBSize)
	p.fq.init(cfg.fetchQueueCap())

	// Wakeup-scheduler state: one ready bit per ROB ring slot, a consumer
	// list per physical register, a waiter list per dependence tag. The
	// backing arrays (and each list's capacity) survive resets.
	if words := (cfg.ROBSize + 63) / 64; len(p.readyBits) < words {
		p.readyBits = make([]uint64, words)
	} else {
		for i := range p.readyBits {
			p.readyBits[i] = 0
		}
	}
	if len(p.consumers) < nPhys {
		p.consumers = make([][]waiter, nPhys)
	} else {
		for i := range p.consumers {
			p.consumers[i] = p.consumers[i][:0]
		}
	}
	if nTags := p.pred.Config().NumTags; len(p.tagWaiters) < nTags {
		p.tagWaiters = make([][]waiter, nTags)
	} else {
		for i := range p.tagWaiters {
			p.tagWaiters[i] = p.tagWaiters[i][:0]
		}
	}
	p.pred.WakeHook = p.onTagReady

	// Bind the shared pre-decoded code table; a source built outside
	// arch.RunTrace / replay (or against a different image) falls back to
	// decoding here.
	if dec := src.Decoded(); len(dec) == len(img.Code) {
		p.dec = dec
	} else {
		p.dec = isa.Predecode(img.Code)
	}
	p.codeBase = img.CodeBase
	p.codeLimit = img.CodeLimit()
	drain := func(e *entry) {
		e.inWheel = false
		p.freeEntry(e)
	}
	if p.events == nil {
		p.events = sched.NewWheel[*entry](eventHorizon)
	} else {
		p.events.Reset(drain)
	}

	p.stats = metrics.Stats{}
	p.cycle = 0
	p.fetchPC = img.Entry
	if st != nil {
		p.fetchPC = st.PC
	}
	p.fetchStallUntil = 0
	p.fetchTraceIdx = 0
	p.onCorrectPath = true
	p.fetchHalted = false
	p.dbg = nil
	p.retired = 0
	p.sfcLiveStores = 0
	p.stalled = 0
	p.lastRetireCycle = 0
	p.err = nil
	p.done = false
	return nil
}

// resetMemSystem rebuilds or resets the memory disambiguation subsystem for
// p.cfg, reusing the existing structures when the kind and geometry match.
func (p *Pipeline) resetMemSystem() {
	cfg := &p.cfg
	p.needsBound = cfg.MemSys == MemMDTSFC || cfg.MemSys == MemMVSFC
	switch cfg.MemSys {
	case MemLSQ:
		if m, ok := p.msys.(*lsqSystem); ok && m.lsq.Config() == cfg.LSQ {
			m.p = p
			m.lsq.Reset()
			return
		}
		p.msys = newLSQSystem(p)
	case MemMDTSFC:
		if m, ok := p.msys.(*mdtSFCSystem); ok && m.sfc.Config() == cfg.SFC && m.reset(p) {
			m.sfc.Reset()
			return
		}
		p.msys = newMDTSFCSystem(p)
	case MemValueReplay:
		if m, ok := p.msys.(*valueReplaySystem); ok && m.vr.Config() == cfg.LSQ {
			m.p = p
			m.vr.Reset()
			return
		}
		p.msys = newValueReplaySystem(p)
	case MemMVSFC:
		if m, ok := p.msys.(*mvSFCSystem); ok && m.sfc.Config() == cfg.MVSFC && m.reset(p) {
			m.sfc.Reset()
			return
		}
		p.msys = newMVSFCSystem(p)
	}
}

// Stats returns the statistics collected so far.
func (p *Pipeline) Stats() *metrics.Stats { return &p.stats }

// SetDebug installs a sink for a detailed event trace (testing aid).
func (p *Pipeline) SetDebug(f func(format string, args ...any)) { p.dbg = f }

func (p *Pipeline) debugf(format string, args ...any) {
	if p.dbg != nil {
		p.dbg(format, args...)
	}
}

// MDTSFC returns the MDT and SFC instances when that subsystem is in use
// (nil otherwise); the harness reads their structure-level statistics.
func (p *Pipeline) MDTSFC() (*core.MDT, *core.SFC) {
	if m, ok := p.msys.(*mdtSFCSystem); ok {
		return m.mdt, m.sfc
	}
	return nil, nil
}

// LSQ returns the LSQ instance when that subsystem is in use.
func (p *Pipeline) LSQ() *core.LSQ {
	if m, ok := p.msys.(*lsqSystem); ok {
		return m.lsq
	}
	return nil
}

// ValueReplay returns the value-replay instance when that subsystem is in
// use.
func (p *Pipeline) ValueReplay() *core.ValueReplay {
	if m, ok := p.msys.(*valueReplaySystem); ok {
		return m.vr
	}
	return nil
}

// MVSFC returns the MDT and multi-version SFC when that subsystem is in use.
func (p *Pipeline) MVSFC() (*core.MDT, *core.MVSFC) {
	if m, ok := p.msys.(*mvSFCSystem); ok {
		return m.mdt, m.sfc
	}
	return nil, nil
}

func (p *Pipeline) fail(err error) {
	if p.err == nil {
		p.err = fmt.Errorf("pipeline: %s: cycle %d, retired %d: %w", p.cfg.Name, p.cycle, p.retired, err)
	}
	p.done = true
}

// Run simulates until the whole trace has retired (or an error occurs) and
// returns the final statistics. Unless Config.noElide pins the stepped
// oracle, each step is followed by an elision attempt that jumps the clock
// over provably quiescent spans (see elide.go); the two loops are
// bit-identical in everything but wall time and Stats.CyclesElided.
func (p *Pipeline) Run() (*metrics.Stats, error) {
	return p.run(context.Background(), math.MaxUint64)
}

// ctxCheckCycles is how often a cancelable run polls its context: frequent
// enough that an abandoned request stops consuming a worker within
// microseconds of wall time, rare enough that the check never shows up in
// profiles.
const ctxCheckCycles = 4096

// RunContext simulates like Run but additionally polls ctx roughly every
// ctxCheckCycles cycles. On cancellation it abandons the run, returning the
// partial statistics collected so far together with an error wrapping the
// context's error. The pipeline is left in a consistent mid-run state:
// Reset recycles every in-flight entry (ROB residents and pending wheel
// events), so an aborted pipeline returns to the pool and its next run is
// bit-identical to one on a freshly constructed pipeline.
//
// A context that can never be canceled (ctx.Done() == nil, e.g.
// context.Background()) is never polled.
func (p *Pipeline) RunContext(ctx context.Context) (*metrics.Stats, error) {
	return p.run(ctx, math.MaxUint64)
}

// RunUntilRetired simulates until at least n instructions of the bound trace
// have retired (or the run finishes or fails first), polling ctx like
// RunContext. The returned stats are the live record finalized up to the stop
// point: the sampler snapshots them here, lets the run continue, and takes a
// Delta at the end to discard detailed-warmup statistics. finalize's counter
// folds are idempotent assignments, so finalizing mid-run is safe.
func (p *Pipeline) RunUntilRetired(ctx context.Context, n uint64) (*metrics.Stats, error) {
	return p.run(ctx, n)
}

// run is the cycle loop behind Run, RunContext and RunUntilRetired: step,
// then try elision, until the run ends or n instructions have retired.
func (p *Pipeline) run(ctx context.Context, n uint64) (*metrics.Stats, error) {
	poll := ctx.Done() != nil
	elide := p.elides()
	check := p.cycle + ctxCheckCycles
	for !p.done && uint64(p.retired) < n {
		p.step()
		// No elision once the target is met: the caller must observe the
		// exact cycle the n-th retirement happened on, not a post-jump one.
		if elide && !p.done && uint64(p.retired) < n {
			p.tryElide()
		}
		// One elided jump can cross many poll boundaries; rebasing check on
		// the post-jump cycle (not check += ctxCheckCycles) keeps the poll
		// cadence bounded in wall time, which is what cancellation latency
		// is measured in — an elided span costs no wall time to cross.
		if poll && p.cycle >= check {
			check = p.cycle + ctxCheckCycles
			if err := ctx.Err(); err != nil {
				p.done = true
				return p.finalize(), fmt.Errorf("pipeline: %s: run abandoned at cycle %d (retired %d): %w",
					p.cfg.Name, p.cycle, p.retired, err)
			}
		}
	}
	return p.finalize(), p.err
}

// Err returns the run's terminal error, if any (set once the run fails;
// callers that drive Step directly check it after the loop).
func (p *Pipeline) Err() error { return p.err }

// finalize folds the memory-subsystem and cache-hierarchy counters into the
// stats record; it is safe to call on a finished or abandoned run.
func (p *Pipeline) finalize() *metrics.Stats {
	if mdt, sfc := p.MDTSFC(); mdt != nil {
		p.stats.SearchEntriesMDT = mdt.EntriesSearched
		p.stats.SearchEntriesSFC = sfc.EntriesSearched
	}
	if mdt, mv := p.MVSFC(); mdt != nil {
		p.stats.SearchEntriesMDT = mdt.EntriesSearched
		p.stats.SearchEntriesSFC = mv.EntriesSearched + mv.VersionsSearched
	}
	if lsq := p.LSQ(); lsq != nil {
		p.stats.SearchEntriesLSQ = lsq.EntriesSearched
	}
	if vr := p.ValueReplay(); vr != nil {
		p.stats.SearchEntriesLSQ = vr.EntriesSearched
	}
	h := p.hier
	p.stats.L1IHits, p.stats.L1IMisses = h.L1I.Hits, h.L1I.Misses
	p.stats.L1DHits, p.stats.L1DMisses = h.L1D.Hits, h.L1D.Misses
	p.stats.L2Hits, p.stats.L2Misses = h.L2.Hits, h.L2.Misses
	p.stats.PrefetchUseful = h.L1D.PrefetchHits
	bc := p.bpc
	p.stats.BPredLookups = bc.Lookups
	p.stats.BPredBaseWrong = bc.BaseWrong
	p.stats.BPredTaggedProvider = bc.TaggedProvider
	p.stats.BPredAltUsed = bc.AltUsed
	p.stats.BPredAllocs = bc.Allocs
	return &p.stats
}

// Step advances the pipeline by one cycle and reports whether it can still
// make progress (false once the run has finished or failed). Run drives the
// same loop internally; Step exists for benchmarks and tests that need
// cycle-level control.
func (p *Pipeline) Step() bool {
	if p.done {
		return false
	}
	p.step()
	return !p.done
}

// step advances one cycle.
func (p *Pipeline) step() {
	if p.needsBound {
		oldest := p.seqs.Peek()
		if p.rob.len() > 0 {
			oldest = p.rob.at(0).seq
		} else if p.fq.len() > 0 {
			oldest = p.fq.at(0).seq
		}
		switch ms := p.msys.(type) {
		case *mdtSFCSystem:
			ms.setBound(oldest)
		case *mvSFCSystem:
			ms.setBound(oldest)
		}
	}
	p.complete()
	p.retire()
	if p.done {
		return
	}
	p.issue()
	p.dispatch()
	p.fetch()
	p.cycle++
	p.stats.Cycles = p.cycle
	p.stats.OccupancySum += uint64(p.rob.len())
	if uint64(p.rob.len()) > p.stats.MaxOccupancy {
		p.stats.MaxOccupancy = uint64(p.rob.len())
	}
	p.checkWatchdogs()
}

// noRetireCycles is the deadlock watchdog's patience: a run with no
// retirement for this many cycles fails. tryElide caps its jumps at the
// watchdog deadlines so an elided span trips them at the same cycle, with
// the same message, as the stepped loop.
const noRetireCycles = 500_000

// checkWatchdogs fails the run when the cycle counter crosses either
// deadline. Called with the post-increment cycle value: after every stepped
// cycle and after every elided jump.
func (p *Pipeline) checkWatchdogs() {
	if p.cycle >= p.cfg.maxCycles {
		p.fail(fmt.Errorf("cycle limit %d exceeded (possible deadlock; ROB=%d, fq=%d)", p.cfg.maxCycles, p.rob.len(), p.fq.len()))
	}
	if p.cycle-p.lastRetireCycle > noRetireCycles {
		p.fail(fmt.Errorf("no retirement for 500k cycles (deadlock; ROB=%d head=%+v)", p.rob.len(), p.headInfo()))
	}
}

func (p *Pipeline) headInfo() string {
	if p.rob.len() == 0 {
		return "<empty>"
	}
	e := p.rob.at(0)
	return fmt.Sprintf("seq=%d pc=%#x %s issued=%v completed=%v stall=%v", e.seq, e.pc, e.inst, e.issued, e.completed, e.stall)
}

// ---------------------------------------------------------------------------
// Completion.

func (p *Pipeline) complete() {
	evs := p.events.Due(p.cycle)
	if len(evs) == 0 {
		return
	}
	// Process completions oldest-first so that an older instruction's flush
	// deterministically squashes younger same-cycle completions. Sequence
	// numbers are unique, so this insertion sort orders events exactly as
	// the sort.Slice call it replaces (which allocated its closure).
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		j := i - 1
		for j >= 0 && seqnum.Before(e.seq, evs[j].seq) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = e
	}
	for _, e := range evs {
		e.inWheel = false
		if e.squashed {
			// Recovery removed this entry from the ROB while its event was
			// pending; the wheel was its last reference.
			p.freeEntry(e)
			continue
		}
		if e.completed {
			continue
		}
		p.completeEntry(e)
	}
}

func (p *Pipeline) completeEntry(e *entry) {
	e.completed = true
	if e.hasDest {
		p.physVal[e.newPhys] = e.result
		p.physReady[e.newPhys] = true
		p.wakeRegister(e.newPhys)
	}
	// Branch resolution. A mispredicted conditional rewinds the history to
	// its pre-prediction checkpoint and shifts the resolved direction in
	// (resolveDir); any other flush restores a checkpoint verbatim.
	if e.isCond || e.isJump {
		if e.actualNext != e.predNextPC {
			p.stats.MispredictFlushes++
			if e.isCond {
				dir := int8(0)
				if e.actualTaken {
					dir = 1
				}
				p.recover(e.seq+1, e.actualNext, e.nextTraceIdx(), e.ghrBefore, dir, MispredictPenalty)
			} else {
				p.recover(e.seq+1, e.actualNext, e.nextTraceIdx(), e.ghrAfter, -1, MispredictPenalty)
			}
			return
		}
	}

	// Memory-dependence violation recovery.
	if v := e.violation; v != nil {
		p.handleViolation(e, v)
	}
}

// nextTraceIdx returns the trace index of the instruction after e, or -1 if
// e is on the wrong path.
func (e *entry) nextTraceIdx() int {
	if e.traceIdx < 0 {
		return -1
	}
	return e.traceIdx + 1
}

func (p *Pipeline) handleViolation(e *entry, v *core.Violation) {
	switch v.Kind {
	case core.TrueViolation:
		p.stats.TrueViolations++
	case core.AntiViolation:
		p.stats.AntiViolations++
	case core.OutputViolation:
		p.stats.OutputViolations++
	}
	if v.ProducerSeq != seqnum.None {
		p.pred.RecordViolation(v.Kind, v.ProducerPC, v.ConsumerPC)
		p.stats.PredViolationsRecorded++
	}
	p.stats.ViolationFlushes++

	penalty := MispredictPenalty + mdtViolExtra
	if p.cfg.MemSys == MemLSQ {
		penalty = MispredictPenalty
	}

	// Locate the first squashed instruction to find the resume point.
	idx := p.firstAtOrAfter(v.FlushFromSeq)
	var resumePC uint64
	resumeTrace := -1
	var ghr uint32
	switch {
	case idx < p.rob.len():
		first := p.rob.at(idx)
		resumePC = first.pc
		resumeTrace = first.traceIdx
		ghr = first.ghrBefore
	case p.fq.len() > 0:
		f := p.fq.at(0)
		resumePC = f.pc
		resumeTrace = f.traceIdx
		ghr = f.ghrBefore
	default:
		// Nothing fetched beyond the flush point: nothing to squash, and
		// fetch already sits at the right PC.
		return
	}
	p.recover(v.FlushFromSeq, resumePC, resumeTrace, ghr, -1, penalty)
}

// ---------------------------------------------------------------------------
// Recovery (partial pipeline flush).

// firstAtOrAfter returns the index of the first ROB entry with seq >= from.
func (p *Pipeline) firstAtOrAfter(from seqnum.Seq) int {
	for i := 0; i < p.rob.len(); i++ {
		if !seqnum.Before(p.rob.at(i).seq, from) {
			return i
		}
	}
	return p.rob.len()
}

// recover squashes every instruction with seq >= from, restores the rename
// and history state, and redirects fetch to resumePC after the given
// penalty. resumeTrace is the golden-trace index of the instruction at
// resumePC, or -1 if recovery lands on the wrong path. resolveDir < 0
// restores the ghr checkpoint verbatim; 0/1 treats ghr as the checkpoint
// taken before a mispredicted conditional branch and shifts the resolved
// direction in (Predictor.Resolve).
func (p *Pipeline) recover(from seqnum.Seq, resumePC uint64, resumeTrace int, ghr uint32, resolveDir int8, penalty int) {
	idx := p.firstAtOrAfter(from)
	if p.dbg != nil {
		p.debugf("c%d RECOVER from=%d resumePC=%#x resumeTrace=%d squash=%d+fq%d", p.cycle, from, resumePC, resumeTrace, p.rob.len()-idx, p.fq.len())
	}
	canceledCompletedStore := false

	// Squash ROB suffix, youngest first, returning rename resources.
	// Undoing each squashed rename in that order leaves the RAT exactly as
	// it stood before the first squashed instruction renamed — the map a
	// per-instruction checkpoint would hold. Entries with a pending
	// completion event stay alive until the wheel drains them; the rest go
	// straight back to the pool.
	for i := p.rob.len() - 1; i >= idx; i-- {
		e := p.rob.at(i)
		e.squashed = true
		p.clearReadyBit(e.slot)
		p.stats.Squashed++
		if e.hasDest {
			p.rat[e.destArch] = e.oldPhys
			p.freePhys = append(p.freePhys, e.newPhys)
		}
		if e.stall {
			p.stalled--
		}
		if e.wroteSFC {
			p.sfcLiveStores--
			canceledCompletedStore = true
		}
		if e.consumeHeld {
			p.pred.ReleaseConsume(e.consumeTag)
			e.consumeHeld = false
		}
		if e.produceTag != core.NoTag {
			p.pred.ProducerDone(e.produceTag, true)
			e.produceTag = core.NoTag
		}
		if !e.inWheel {
			p.freeEntry(e)
		}
	}
	p.rob.truncate(idx)

	// The fetch queue is strictly younger than the ROB; clear it.
	p.stats.Squashed += uint64(p.fq.len())
	p.fq.clear()

	p.msys.squashFrom(from)
	p.stats.SFCLiveSum += uint64(p.sfcLiveStores)
	if p.dbg != nil {
		p.debugf("c%d FLUSH-SFC canceled=%v live=%d", p.cycle, canceledCompletedStore, p.sfcLiveStores)
	}
	// The flushed window covers every canceled sequence number: [from,
	// latest allocated]. Sequence numbers allocated after recovery are
	// larger, so the window never covers live instructions.
	p.msys.onPartialFlush(from, p.seqs.Peek()-1, p.sfcLiveStores)

	if resolveDir >= 0 {
		p.bp.Resolve(ghr, resolveDir == 1)
	} else {
		p.bp.Restore(ghr)
	}
	p.fetchPC = resumePC
	p.fetchTraceIdx = resumeTrace
	p.onCorrectPath = resumeTrace >= 0
	p.fetchHalted = false
	until := p.cycle + uint64(penalty)
	if until > p.fetchStallUntil {
		p.fetchStallUntil = until
	}
}

// ---------------------------------------------------------------------------
// Retirement.

func (p *Pipeline) retire() {
	for n := 0; n < p.cfg.Width && p.rob.len() > 0; n++ {
		e := p.rob.at(0)
		if !e.completed || e.squashed {
			return
		}
		if e.isLoad {
			if v := p.msys.preRetireLoad(e); v != nil {
				// Retirement-time disambiguation (value replay): the
				// load consumed a stale value; recover from the load
				// itself. Detection this late is the scheme's cost.
				p.stats.TrueViolations++
				p.stats.ViolationFlushes++
				p.recover(e.seq, e.pc, e.traceIdx, e.ghrBefore, -1, MispredictPenalty)
				return
			}
		}
		if err := p.validateRetire(e); err != nil {
			p.fail(err)
			return
		}
		if p.dbg != nil && (e.isLoad || e.isStore) {
			p.debugf("c%d RETIRE seq=%d ti=%d pc=%#x %s addr=%#x", p.cycle, e.seq, e.traceIdx, e.pc, e.inst, e.memAddr)
		}
		// Commit.
		if e.isStore {
			addr, size, val, freed, err := p.msys.retireStore(e)
			if err != nil {
				p.fail(err)
				return
			}
			p.memory.WriteUint(addr, size, val)
			p.hier.DataLatency(addr) // commit touches the D-cache
			if e.wroteSFC {
				p.sfcLiveStores--
			}
			p.stats.RetiredStores++
			if freed {
				p.clearStallBits()
			}
		}
		if e.isLoad {
			if p.msys.retireLoad(e) {
				p.clearStallBits()
			}
			p.stats.RetiredLoads++
		}
		if e.isCond && e.traceIdx >= 0 {
			p.stats.CondBranches++
			if e.predNextPC != e.actualNext {
				p.stats.Mispredicts++
			}
			p.bp.Update(e.pc, e.ghrBefore, e.actualTaken)
		}
		if e.hasDest && e.oldPhys != noPhys {
			p.freePhys = append(p.freePhys, e.oldPhys)
		}
		if e.stall {
			// Issued through the head bypass with its stall bit still set.
			p.stalled--
		}
		if e.produceTag != core.NoTag {
			p.pred.ProducerDone(e.produceTag, false)
			e.produceTag = core.NoTag
		}
		// The vacated ring slot must hand a clear ready bit to its next
		// occupant (under the scan oracle, issue never cleared it).
		p.clearReadyBit(e.slot)
		p.rob.popFront()
		p.retired++
		p.stats.Retired++
		p.lastRetireCycle = p.cycle
		isHalt := e.inst.Op == isa.OpHalt
		// A retiring entry's completion event has already drained (it
		// completed), so the ROB held the last reference. The inWheel check
		// is defensive: leaking an entry is recoverable, recycling one with
		// a live wheel reference is not.
		if !e.inWheel {
			p.freeEntry(e)
		}
		if isHalt || p.retired >= p.srcLen {
			p.done = true
			return
		}
	}
}

func (p *Pipeline) validateRetire(e *entry) error {
	if e.traceIdx != p.retired {
		return fmt.Errorf("retiring seq %d pc=%#x %s: trace index %d, expected %d (wrong-path instruction reached retirement?)",
			e.seq, e.pc, e.inst, e.traceIdx, p.retired)
	}
	if p.stream != nil && p.retireMatchesStream(e) {
		return nil
	}
	rec := p.src.RecordAt(p.retired)
	if rec.PC != e.pc {
		return fmt.Errorf("retire #%d: pc %#x, trace has %#x", p.retired, e.pc, rec.PC)
	}
	if rec.HasDest != e.hasDest || (e.hasDest && (rec.Dest != e.destArch || rec.DestVal != e.result)) {
		return fmt.Errorf("retire #%d pc=%#x %s: dest %v=%#x, trace has %v=%#x",
			p.retired, e.pc, e.inst, e.destArch, e.result, rec.Dest, rec.DestVal)
	}
	if e.isLoad && (rec.Addr != e.memAddr || rec.LoadVal != e.result) {
		return fmt.Errorf("retire #%d pc=%#x %s: load [%#x]=%#x, trace has [%#x]=%#x",
			p.retired, e.pc, e.inst, e.memAddr, e.result, rec.Addr, rec.LoadVal)
	}
	if e.isStore && (rec.Addr != e.memAddr || rec.StoreVal != e.memVal) {
		return fmt.Errorf("retire #%d pc=%#x %s: store [%#x]=%#x, trace has [%#x]=%#x",
			p.retired, e.pc, e.inst, e.memAddr, e.memVal, rec.Addr, rec.StoreVal)
	}
	if (e.isCond || e.isJump) && rec.NextPC != e.actualNext {
		return fmt.Errorf("retire #%d pc=%#x %s: next PC %#x, trace has %#x",
			p.retired, e.pc, e.inst, e.actualNext, rec.NextPC)
	}
	return nil
}

// retireMatchesStream reports whether e agrees with the bound stream's record
// p.retired on every field validateRetire compares, reading the columns the
// way replay.Stream.RecordAt reconstructs that record but without building
// it. A false answer sends validateRetire to the record itself, which
// decides and words the error.
func (p *Pipeline) retireMatchesStream(e *entry) bool {
	s, i := p.stream, p.retired
	d := &s.Decoded()[s.CodeIdx[i]]
	val := s.Val[i]
	switch {
	case s.PCAt(i) != e.pc, d.HasDest != e.hasDest, d.IsLoad != e.isLoad, d.IsStore != e.isStore:
		return false
	case e.hasDest && (d.DestReg != e.destArch || val != e.result):
		return false
	case e.isLoad && (s.Addr[i] != e.memAddr || val != e.result):
		return false
	case e.isStore && (s.Addr[i] != e.memAddr || val != e.memVal):
		return false
	case (e.isCond || e.isJump) && s.NextPCAt(i) != e.actualNext:
		return false
	}
	return true
}

// clearStallBits clears every replay stall bit when the memory unit frees an
// entry (§2.4.3) and re-arms stalled instructions that are now issuable. The
// stalled count spares the ROB walk when no bit is set, the common case.
func (p *Pipeline) clearStallBits() {
	if p.stalled == 0 {
		return
	}
	p.stalled = 0
	for i := 0; i < p.rob.len(); i++ {
		e := p.rob.at(i)
		if e.stall {
			e.stall = false
			// Arm without consulting the dependence tag: a replayed entry no
			// longer holds a consume reference, so its tag can be recycled (and
			// lose readiness) at any time before issue. issueRange re-samples
			// TagReady at issue time — exactly when the scan oracle polls it —
			// and parks the entry on the tag's waiter list if it fails.
			if !e.issued && !e.squashed && e.waitCount == 0 {
				p.setReadyBit(e.slot)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Issue / execute.
//
// The scheduler is wakeup-driven: a ready bitset over ROB ring slots holds
// exactly the entries the retired linear scan would find issuable (minus the
// head-of-ROB bypass and the per-cycle FU/port limits, which issue applies
// itself). Bits are maintained incrementally — dispatch arms entries whose
// operands are already ready, register writeback drains consumer lists, the
// predictor's wake hook drains tag-waiter lists, replay-stall clearing
// re-arms, and squash/retire disarm — so a cycle's issue cost scales with
// the number of ready instructions instead of the window size.

func (p *Pipeline) setReadyBit(slot int32)   { p.readyBits[slot>>6] |= 1 << uint(slot&63) }
func (p *Pipeline) clearReadyBit(slot int32) { p.readyBits[slot>>6] &^= 1 << uint(slot&63) }

// armIfIssuable sets e's ready bit when every per-entry issue precondition
// holds: not yet issued, not squashed, all source registers ready, and — for
// memory ops — no replay stall and a ready dependence tag. These are exactly
// the conditions the linear scan re-evaluates per cycle; the head-of-ROB
// bypass (§2.2) is handled separately in issue, so a blocked entry's bit
// stays clear even when it is issuable as head.
func (p *Pipeline) armIfIssuable(e *entry) {
	if e.issued || e.squashed || e.waitCount != 0 {
		return
	}
	if (e.isLoad || e.isStore) && (e.stall || !p.pred.TagReady(e.consumeTag)) {
		return
	}
	p.setReadyBit(e.slot)
}

// wakeRegister drains r's consumer list at writeback: each still-live waiter
// has one fewer outstanding source, and an entry whose last source just
// became ready is armed. An entry with a duplicated source register holds
// two records and is decremented twice, mirroring its waitCount of two.
func (p *Pipeline) wakeRegister(r physReg) {
	lst := p.consumers[r]
	if len(lst) == 0 {
		return
	}
	for i := range lst {
		w := lst[i]
		e := w.e
		if e.seq != w.seq || e.pooled || e.squashed {
			continue
		}
		e.waitCount--
		if e.waitCount == 0 {
			p.armIfIssuable(e)
		}
	}
	p.consumers[r] = lst[:0]
}

// onTagReady is the predictor's wake hook: tag became ready (its producer
// issued, or was squashed), so every consumer parked on it re-evaluates.
// Readiness is monotone until the tag is recycled, and a tag cannot be
// recycled while an unissued live consumer still holds a reference, so the
// drained list never needs to survive into a tag's next incarnation.
func (p *Pipeline) onTagReady(tag core.TagID) {
	lst := p.tagWaiters[tag]
	if len(lst) == 0 {
		return
	}
	for i := range lst {
		w := lst[i]
		e := w.e
		if e.seq != w.seq || e.pooled || e.squashed || e.issued {
			continue
		}
		p.armIfIssuable(e)
	}
	p.tagWaiters[tag] = lst[:0]
}

func (p *Pipeline) issue() {
	if p.cfg.linearScan {
		p.issueScan()
		return
	}
	n := p.rob.len()
	if n == 0 {
		return
	}
	issued, memIssued := 0, 0
	// Head-of-ROB bypass (§2.2): the oldest instruction ignores its replay
	// stall and dependence tag, so it can be issuable with its ready bit
	// clear. Evaluate it explicitly, exactly like the scan's i == 0 case.
	h := p.rob.buf[p.rob.head]
	if !h.issued && !h.squashed && h.waitCount == 0 {
		p.clearReadyBit(h.slot)
		p.execute(h, true)
		issued++
		if h.isLoad || h.isStore {
			memIssued++
		}
		p.stats.Issued++
		if p.done || issued >= p.cfg.Width {
			return
		}
	}
	// Age-ordered bitset walk over the occupied ring region [head, head+n),
	// split at the ring wrap into at most two linear segments. The head's
	// bit was cleared above, so it is never issued twice.
	end := p.rob.head + n
	ringCap := len(p.rob.buf)
	if end <= ringCap {
		p.issueRange(p.rob.head, end, &issued, &memIssued)
		return
	}
	if p.issueRange(p.rob.head, ringCap, &issued, &memIssued) {
		p.issueRange(0, end-ringCap, &issued, &memIssued)
	}
}

// issueRange issues armed entries in ring slots [lo, hi), oldest first, and
// reports whether issue may continue into the next segment. After each
// execution the current word is re-read: issuing a producer readies its
// dependence tag, and the woken consumers — always younger, therefore later
// in the walk — must be picked up this cycle exactly where the linear scan
// would have reached them.
func (p *Pipeline) issueRange(lo, hi int, issued, memIssued *int) bool {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		// mask selects the not-yet-visited [lo, hi) bits of this word.
		mask := ^uint64(0)
		if base < lo {
			mask <<= uint(lo - base)
		}
		if rem := hi - base; rem < 64 {
			mask &= uint64(1)<<uint(rem) - 1
		}
		for {
			w := p.readyBits[wi] & mask
			if w == 0 {
				break
			}
			b := bits.TrailingZeros64(w)
			mask &^= uint64(1)<<uint(b)<<1 - 1 // visited: b and everything older
			e := p.rob.buf[base+b]
			if e.isLoad || e.isStore {
				if p.cfg.MemPorts > 0 && *memIssued >= p.cfg.MemPorts {
					continue // port-limited this cycle; the bit stays armed
				}
				// Re-sample tag readiness at issue time, matching the scan
				// oracle's per-cycle poll. An armed bit is only a hint for a
				// replayed memory op: it released its consume reference at its
				// first issue, so the tag may since have been recycled to a
				// not-ready incarnation. Park the entry on that incarnation's
				// waiter list; every incarnation becomes ready before the tag
				// can be recycled again, so the wakeup is never lost.
				if !p.pred.TagReady(e.consumeTag) {
					p.clearReadyBit(e.slot)
					p.tagWaiters[e.consumeTag] = append(p.tagWaiters[e.consumeTag], waiter{e, e.seq})
					continue
				}
			}
			p.clearReadyBit(e.slot)
			p.execute(e, false)
			*issued++
			if e.isLoad || e.isStore {
				*memIssued++
			}
			p.stats.Issued++
			if p.done || *issued >= p.cfg.Width {
				return false
			}
		}
	}
	return true
}

// issueScan is the retired O(window) scheduler: re-scan the whole ROB every
// cycle, re-checking each entry's operand and tag readiness. Kept as the
// oracle for the wakeup scheduler's differential test; selected by
// Config.linearScan.
func (p *Pipeline) issueScan() {
	issued := 0
	memIssued := 0
	for i := 0; i < p.rob.len() && issued < p.cfg.Width; i++ {
		e := p.rob.at(i)
		if e.issued || e.squashed {
			continue
		}
		if (e.isLoad || e.isStore) && p.cfg.MemPorts > 0 && memIssued >= p.cfg.MemPorts {
			continue
		}
		ready := true
		for s := 0; s < e.nSrc; s++ {
			if !p.physReady[e.srcPhys[s]] {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		head := i == 0
		if e.isLoad || e.isStore {
			if e.stall && !head {
				continue
			}
			if !p.pred.TagReady(e.consumeTag) && !head {
				continue
			}
		}
		p.execute(e, head)
		issued++
		if e.isLoad || e.isStore {
			memIssued++
		}
		p.stats.Issued++
		if p.done {
			return
		}
	}
}

// srcVal reads a source operand's value from the physical register file.
func (p *Pipeline) srcVal(e *entry, i int) uint64 {
	return p.physVal[e.srcPhys[i]]
}

func (p *Pipeline) execute(e *entry, head bool) {
	e.issued = true
	if e.consumeHeld {
		p.pred.ReleaseConsume(e.consumeTag)
		e.consumeHeld = false
	}
	in := e.inst
	lat := intLat
	switch e.dec.Class {
	case isa.ClassALU, isa.ClassNop, isa.ClassHalt:
		e.result = p.aluResult(e)
	case isa.ClassMul:
		e.result = p.aluResult(e)
		lat = mulLat
	case isa.ClassDiv:
		e.result = p.aluResult(e)
		lat = divLat

	case isa.ClassBranch:
		rs1, rs2 := p.srcVal(e, 0), p.srcVal(e, 1)
		e.actualTaken = arch.EvalBranch(in.Op, rs1, rs2)
		e.actualNext = e.pc + 4
		if e.actualTaken {
			e.actualNext = e.pc + 4 + uint64(int64(in.Imm))*4
		}

	case isa.ClassJump:
		e.result = e.pc + 4
		if in.Op == isa.OpJal {
			e.actualNext = e.pc + 4 + uint64(int64(in.Imm))*4
		} else {
			e.actualNext = (p.srcVal(e, 0) + uint64(int64(in.Imm))) &^ 3
		}
		e.actualTaken = true

	case isa.ClassLoad:
		p.executeLoad(e, head)

	case isa.ClassStore:
		p.executeStore(e, head)
	}
	if e.dec.Class != isa.ClassLoad && e.dec.Class != isa.ClassStore {
		p.schedule(e, lat)
	}
	// The scheduler marks the produced dependence tag ready once the
	// instruction issues to the memory unit (§2.1), except that it
	// "oracularly avoids awakening predicted consumers of loads and stores
	// that will be replayed" (§3): a replayed memory op has its issued flag
	// reset by replay above, deferring readiness to a later attempt.
	if e.issued && e.produceTag != core.NoTag {
		p.pred.ProducerComplete(e.produceTag)
	}
}

func (p *Pipeline) aluResult(e *entry) uint64 {
	in := e.inst
	var rs1, rs2 uint64
	if e.nSrc > 0 {
		rs1 = p.srcVal(e, 0)
	}
	if e.nSrc > 1 {
		rs2 = p.srcVal(e, 1)
	}
	imm := uint64(int64(in.Imm))
	switch in.Op {
	case isa.OpAdd:
		return rs1 + rs2
	case isa.OpSub:
		return rs1 - rs2
	case isa.OpAnd:
		return rs1 & rs2
	case isa.OpOr:
		return rs1 | rs2
	case isa.OpXor:
		return rs1 ^ rs2
	case isa.OpSll:
		return rs1 << (rs2 & 63)
	case isa.OpSrl:
		return rs1 >> (rs2 & 63)
	case isa.OpSra:
		return uint64(int64(rs1) >> (rs2 & 63))
	case isa.OpSlt:
		if int64(rs1) < int64(rs2) {
			return 1
		}
		return 0
	case isa.OpSltu:
		if rs1 < rs2 {
			return 1
		}
		return 0
	case isa.OpMul:
		return rs1 * rs2
	case isa.OpDiv:
		return arch.DivOp(rs1, rs2)
	case isa.OpRem:
		return arch.RemOp(rs1, rs2)
	case isa.OpAddi:
		return rs1 + imm
	case isa.OpAndi:
		return rs1 & imm
	case isa.OpOri:
		return rs1 | imm
	case isa.OpXori:
		return rs1 ^ imm
	case isa.OpSlli:
		return rs1 << (imm & 63)
	case isa.OpSrli:
		return rs1 >> (imm & 63)
	case isa.OpSrai:
		return uint64(int64(rs1) >> (imm & 63))
	case isa.OpSlti:
		if int64(rs1) < int64(in.Imm) {
			return 1
		}
		return 0
	case isa.OpMovz:
		return uint64(uint32(in.Imm)) << (16 * uint(in.Sh))
	case isa.OpMovk:
		old := rs1 // MOVK sources its own destination
		mask := uint64(0xFFFF) << (16 * uint(in.Sh))
		return old&^mask | uint64(uint32(in.Imm))<<(16*uint(in.Sh))
	}
	return 0
}

func (p *Pipeline) executeLoad(e *entry, head bool) {
	in := e.inst
	e.memSize = e.dec.MemSize
	addr := p.srcVal(e, 0) + uint64(int64(in.Imm))
	// Wrong-path address streams can be arbitrarily misaligned; force
	// natural alignment so no access crosses an 8-byte word. Correct-path
	// programs are aligned by construction (the golden model faults
	// otherwise).
	e.memAddr = addr &^ (uint64(e.memSize) - 1)
	if p.app != nil {
		p.trainAddrPred(e)
	}
	out := p.msys.executeLoad(e, head)
	if p.dbg != nil {
		p.debugf("c%d LOAD  seq=%d ti=%d pc=%#x addr=%#x head=%v replay=%v/%d val=%#x fwd=%v viol=%+v", p.cycle, e.seq, e.traceIdx, e.pc, e.memAddr, head, out.replay, out.cause, out.value, out.forwarded, out.violation)
	}
	if p.done {
		return
	}
	if out.replay {
		p.replay(e, out.cause)
		return
	}
	e.memVal = out.value
	e.result = arch.Extend(out.value, e.memSize, e.dec.Signed)
	e.forwarded = out.forwarded
	e.violation = out.violation
	p.schedule(e, out.latency)
}

func (p *Pipeline) executeStore(e *entry, head bool) {
	in := e.inst
	e.memSize = e.dec.MemSize
	addr := p.srcVal(e, 0) + uint64(int64(in.Imm))
	e.memAddr = addr &^ (uint64(e.memSize) - 1)
	e.memVal = p.srcVal(e, 1) & arch.SizeMask(e.memSize)
	out := p.msys.executeStore(e, head)
	if p.dbg != nil {
		p.debugf("c%d STORE seq=%d ti=%d pc=%#x addr=%#x val=%#x head=%v replay=%v/%d viol=%+v", p.cycle, e.seq, e.traceIdx, e.pc, e.memAddr, e.memVal, head, out.replay, out.cause, out.violation)
	}
	if p.done {
		return
	}
	if out.replay {
		p.replay(e, out.cause)
		return
	}
	e.violation = out.violation
	p.schedule(e, out.latency)
}

// replay implements the re-execution mechanism: the memory unit drops the
// instruction and places it back on the scheduler's ready list with its
// stall bit set (§2.4.3).
func (p *Pipeline) replay(e *entry, cause replayCause) {
	e.issued = false
	if !e.stall {
		e.stall = true
		p.stalled++
	}
	e.replays++
	switch cause {
	case replaySFCConflict:
		p.stats.ReplaySFCConflict++
	case replayMDTConflict:
		p.stats.ReplayMDTConflict++
	case replayCorrupt:
		p.stats.ReplayCorrupt++
	case replayPartial:
		p.stats.ReplayPartial++
	}
}

func (p *Pipeline) schedule(e *entry, lat int) {
	if lat < 1 {
		lat = 1
	}
	e.inWheel = true
	p.events.Schedule(p.cycle, p.cycle+uint64(lat), e)
}

// ---------------------------------------------------------------------------
// Dispatch (decode + memory dependence prediction + rename).

func (p *Pipeline) dispatch() {
	for n := 0; n < p.cfg.Width && p.fq.len() > 0; n++ {
		f := p.fq.at(0)
		if f.readyAt > p.cycle {
			return
		}
		if p.rob.len() >= p.cfg.ROBSize {
			p.stats.StallROBFull++
			return
		}
		d := f.dec
		dest, hasDest := d.DestReg, d.HasDest
		if hasDest && len(p.freePhys) == 0 {
			p.stats.StallPhysRegs++
			return
		}
		isLoad := d.IsLoad
		isStore := d.IsStore
		if isLoad && !p.msys.canDispatchLoad() {
			p.stats.StallLSQFull++
			return
		}
		if isStore && !p.msys.canDispatchStore() {
			if p.cfg.MemSys == MemMDTSFC {
				p.stats.StallFIFOFull++
			} else {
				p.stats.StallLSQFull++
			}
			return
		}
		// Memory dependence prediction (tags) last: it is the only
		// allocation that cannot be probed without side effects.
		var dtags core.Dispatch
		if isLoad || isStore {
			var ok bool
			dtags, ok = p.pred.Lookup(f.pc)
			if !ok {
				p.stats.StallTags++
				p.stats.PredTagStallCycles++
				return
			}
		} else {
			dtags = core.Dispatch{ConsumeTag: core.NoTag, ProduceTag: core.NoTag}
		}

		e := p.allocEntry()
		e.seq = f.seq
		e.pc = f.pc
		e.inst = d.Inst
		e.dec = d
		e.traceIdx = f.traceIdx
		e.predNextPC = f.predNextPC
		e.ghrBefore = f.ghrBefore
		e.ghrAfter = f.ghrAfter
		e.newPhys = noPhys
		e.oldPhys = noPhys
		e.isLoad = isLoad
		e.isStore = isStore
		e.isCond = d.IsBranch
		e.isJump = d.IsJump
		e.consumeTag = dtags.ConsumeTag
		e.produceTag = dtags.ProduceTag
		e.consumeHeld = dtags.ConsumeTag != core.NoTag
		if e.consumeHeld {
			p.stats.PredConsumerWaits++
		}

		// Rename: map sources, allocate destination. A source whose
		// producer has not written back yet parks the entry on that
		// register's consumer list for the writeback wakeup.
		for s := 0; s < int(d.NSrc); s++ {
			ph := p.rat[d.SrcRegs[s]]
			e.srcPhys[e.nSrc] = ph
			e.nSrc++
			if !p.physReady[ph] {
				e.waitCount++
				p.consumers[ph] = append(p.consumers[ph], waiter{e, e.seq})
			}
		}
		if hasDest {
			e.hasDest = true
			e.destArch = dest
			np := p.freePhys[len(p.freePhys)-1]
			p.freePhys = p.freePhys[:len(p.freePhys)-1]
			e.newPhys = np
			e.oldPhys = p.rat[dest]
			p.rat[dest] = np
			p.physReady[np] = false
			// Any leftover waiters are from np's previous life (a squashed
			// producer whose consumers were squashed with it); drop them.
			p.consumers[np] = p.consumers[np][:0]
		}

		if isLoad {
			// Pre-probe the SFC/MDT for the predicted address (frontend.go).
			// This sits strictly after every stall check above: a stalled
			// dispatch attempt must stay side-effect-free so the idle-cycle
			// elision proof (quiesce) holds.
			if p.app != nil {
				p.preprobeLoad(e)
			}
			p.msys.dispatchLoad(e.seq, e.pc)
		}
		if isStore {
			p.msys.dispatchStore(e.seq, e.pc)
		}

		p.rob.pushBack(e)
		// pushBack assigned the ring slot; now the entry can be armed, or
		// parked on its dependence tag's waiter list.
		if (isLoad || isStore) && e.consumeTag != core.NoTag && !p.pred.TagReady(e.consumeTag) {
			p.tagWaiters[e.consumeTag] = append(p.tagWaiters[e.consumeTag], waiter{e, e.seq})
		}
		p.armIfIssuable(e)
		p.fq.popFront()
		p.stats.Dispatched++
	}
}

// ---------------------------------------------------------------------------
// Fetch.

// truePC, trueTaken and trueNext are the front-end oracle: correct-path
// instruction i's PC, branch outcome and next PC, read from the bound
// stream's columns when the source is a replay view.
func (p *Pipeline) truePC(i int) uint64 {
	if p.stream != nil {
		return p.stream.PCAt(i)
	}
	return p.src.PCAt(i)
}

func (p *Pipeline) trueTaken(i int) bool {
	if p.stream != nil {
		return p.stream.TakenAt(i)
	}
	return p.src.TakenAt(i)
}

func (p *Pipeline) trueNext(i int) uint64 {
	if p.stream != nil {
		return p.stream.NextPCAt(i)
	}
	return p.src.NextPCAt(i)
}

func (p *Pipeline) fetch() {
	if p.fetchHalted || p.cycle < p.fetchStallUntil {
		return
	}
	if p.onCorrectPath && p.fetchTraceIdx >= p.srcLen {
		return // instruction budget exhausted; drain the pipeline
	}
	branches := 0
	for n := 0; n < p.cfg.Width; n++ {
		if p.fq.len() >= p.cfg.fetchQueueCap() {
			return
		}
		pc := p.fetchPC &^ 3
		lat := p.hier.FetchLatency(pc)
		if lat > 0 {
			p.fetchStallUntil = p.cycle + uint64(lat)
			return
		}
		var dec *isa.DecodedInst
		if pc >= p.codeBase && pc < p.codeLimit {
			dec = &p.dec[(pc-p.codeBase)>>2]
		} else {
			// Wrong-path fetch wandered outside the code segment; feed
			// NOPs until recovery redirects fetch.
			if p.onCorrectPath {
				p.fail(fmt.Errorf("correct-path fetch at %#x outside code segment", pc))
				return
			}
			dec = &wrongPathNop
		}
		in := dec.Inst

		seq := p.seqs.Next()
		ghrBefore := p.bp.History()
		predNext := pc + 4
		isHalt := false

		switch {
		case dec.IsBranch:
			dir := p.bp.Predict(pc)
			p.bpc.Lookups++
			if p.onCorrectPath {
				trueTaken := p.trueTaken(p.fetchTraceIdx)
				if dir != trueTaken {
					p.bpc.BaseWrong++
					if p.bp.OracleFixes(uint64(seq)) {
						dir = trueTaken
						p.stats.OracleCorrected++
					}
				}
			}
			p.bp.Speculate(dir)
			if dir {
				predNext = pc + 4 + uint64(int64(in.Imm))*4
			}
			branches++
		case in.Op == isa.OpJal:
			predNext = pc + 4 + uint64(int64(in.Imm))*4
		case in.Op == isa.OpJalr:
			if p.onCorrectPath {
				// Perfect indirect-target prediction on the correct path
				// (the paper's front end oracle covers target supply).
				predNext = p.trueNext(p.fetchTraceIdx)
			}
			// Wrong path: predict fall-through; execute will redirect.
		case in.Op == isa.OpHalt:
			if p.onCorrectPath {
				isHalt = true
				predNext = pc
			}
		}

		traceIdx := -1
		if p.onCorrectPath {
			if truePC := p.truePC(p.fetchTraceIdx); truePC != pc {
				p.fail(fmt.Errorf("correct-path fetch at %#x, trace expects %#x (idx %d)", pc, truePC, p.fetchTraceIdx))
				return
			}
			trueNext := p.trueNext(p.fetchTraceIdx)
			traceIdx = p.fetchTraceIdx
			p.fetchTraceIdx++
			if predNext != trueNext && !isHalt {
				// Diverging from the correct path: subsequent fetches are
				// wrong-path until recovery.
				p.onCorrectPath = false
			}
		}

		p.fq.pushBack(fqEntry{
			seq:        seq,
			pc:         pc,
			dec:        dec,
			traceIdx:   traceIdx,
			predNextPC: predNext,
			ghrBefore:  ghrBefore,
			ghrAfter:   p.bp.History(),
			readyAt:    p.cycle + frontEndDepth,
			isHalt:     isHalt,
		})
		p.stats.Fetched++
		p.fetchPC = predNext

		if isHalt {
			p.fetchHalted = true
			return
		}
		if p.onCorrectPath && p.fetchTraceIdx >= p.srcLen {
			return
		}
		if predNext != pc+4 {
			return // taken control flow ends the fetch packet
		}
		if branches >= p.cfg.FetchBranches {
			return
		}
	}
}

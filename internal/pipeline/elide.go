package pipeline

// Idle-cycle elision: the run loops skip provably quiescent spans in one
// jump instead of stepping them cycle by cycle (DESIGN.md §13).
//
// The paper's interesting regions — L2-miss chains, MDT/SFC conflict
// storms, corruption recovery — are exactly where the simulated core sits
// fully idle for a hundred cycles at a time waiting for one completion
// event. In the stepped loop each of those cycles still pays for all five
// stages plus stats. Here step() is followed by tryElide(), which proves
// that *nothing observable can happen* until some future cycle and jumps
// the clock there, folding the per-cycle counters in closed form. The
// stepped loop is retained as the Config.NoElide oracle and the two are
// pinned bit-identical by TestElideEquivalence.
//
// The safety argument, stage by stage (the order mirrors step()):
//
//   - complete: drains wheel events due at the current cycle. The jump is
//     capped at Wheel.NextAt, so every skipped cycle is provably
//     event-free and Due's called-for-every-cycle contract is preserved.
//   - retire: a no-op iff the ROB is empty or its head is incomplete (or
//     squashed); the head can only complete via a wheel event.
//   - issue: a no-op iff the head-of-ROB bypass cannot fire (head issued,
//     squashed, or waiting on a writeback) and the ready bitset is empty.
//     Writebacks and tag readiness only change on wheel events or issues,
//     so an empty ready set stays empty across an event-free span.
//   - dispatch: a no-op iff the fetch queue is empty or its head has not
//     reached its front-end readyAt (which caps the jump — it is a
//     deadline, not an event), or blocked on exactly the first stall
//     condition the stepped loop would hit. That condition reads only
//     state (ROB length, free physical registers, memory-subsystem
//     occupancy, predictor tag pool) that is frozen while every other
//     stage no-ops, so the same single stall counter accrues once per
//     skipped cycle and is folded as counter += span. The predictor case
//     uses the side-effect-free LookupWouldStall probe and additionally
//     folds the predictor's own TagStalls counter.
//   - fetch: a no-op iff halted, the correct-path budget is exhausted,
//     stalled on an I-miss until fetchStallUntil (a deadline cap, like
//     readyAt), or the fetch queue is full.
//   - setBound: the memory subsystem's reclamation bound is a plain
//     assignment of the oldest in-flight sequence number, which cannot
//     change during a quiescent span; re-asserting it every skipped cycle
//     is idempotent, so only the landing step's call is needed.
//
// Accounting folded over a span of length n at constant ROB occupancy r:
// Cycles += n, OccupancySum += n*r, MaxOccupancy unchanged (r was already
// applied on the last stepped cycle), one dispatch stall counter += n, and
// CyclesElided += n. The watchdogs in checkWatchdogs fire at exact cycle
// values, so the jump is additionally capped at MaxCycles and at the
// no-retirement deadline: a deadlocked quiescent machine fails on the same
// cycle, with the same error text, as under the stepped oracle.

// elideStall identifies which dispatch stall counter a quiescent span
// accrues, mirroring the first-blocking-condition order of dispatch().
type elideStall uint8

const (
	elideNoStall elideStall = iota // fetch queue empty or head not ready yet
	elideROBFull
	elidePhysRegs
	elideLoadFull
	elideStoreFull
	elideTags
)

// elides reports whether this pipeline's run loops attempt idle-cycle
// elision. The linear-scan scheduler re-polls every ROB entry every cycle;
// it is the wakeup scheduler's oracle and stays on the stepped loop, whose
// behaviour it was differentially tested against.
func (p *Pipeline) elides() bool {
	return !p.cfg.NoElide && !p.cfg.linearScan
}

// quiesce reports whether the upcoming cycle (p.cycle) is quiescent: every
// stage either a strict no-op or a pure stall-counter increment, with no
// state change that could alter any later cycle. On success it returns the
// first cycle (exclusive bound) at which a stage deadline — fetch-queue
// head readyAt or fetchStallUntil — ends the proof, and which dispatch
// stall counter the span accrues. Wheel events and watchdog deadlines are
// the caller's caps.
func (p *Pipeline) quiesce() (until uint64, stall elideStall, ok bool) {
	until = ^uint64(0)

	if p.rob.len() > 0 {
		h := p.rob.at(0)
		// Retire: nothing leaves while the head is incomplete or squashed.
		if h.completed && !h.squashed {
			return 0, 0, false
		}
		// Issue: the head-of-ROB bypass fires on an unissued, unsquashed
		// head with no pending writebacks (ignoring its replay stall and
		// dependence tag, §2.2) ...
		if !h.issued && !h.squashed && h.waitCount == 0 {
			return 0, 0, false
		}
		// ... and everything younger issues through the ready bitset.
		for _, w := range p.readyBits {
			if w != 0 {
				return 0, 0, false
			}
		}
	}

	// Dispatch: quiescent only when the head of the fetch queue cannot
	// enter the ROB, for the same first reason dispatch() would find.
	if p.fq.len() > 0 {
		f := p.fq.at(0)
		d := f.dec
		switch {
		case f.readyAt > p.cycle:
			// Front-end depth: dispatch wakes at readyAt with no event.
			if f.readyAt < until {
				until = f.readyAt
			}
		case p.rob.len() >= p.cfg.ROBSize:
			stall = elideROBFull
		case d.HasDest && len(p.freePhys) == 0:
			stall = elidePhysRegs
		case d.IsLoad && !p.msys.canDispatchLoad():
			stall = elideLoadFull
		case d.IsStore && !p.msys.canDispatchStore():
			stall = elideStoreFull
		case (d.IsLoad || d.IsStore) && p.pred.LookupWouldStall(f.pc):
			stall = elideTags
		default:
			return 0, 0, false // dispatch would make progress
		}
	}

	// Fetch: quiescent when halted, the correct-path budget is drained,
	// stalled on an I-miss (wakes at fetchStallUntil with no event), or
	// blocked on a full fetch queue.
	switch {
	case p.fetchHalted:
	case p.onCorrectPath && p.fetchTraceIdx >= p.srcLen:
	case p.cycle < p.fetchStallUntil:
		if p.fetchStallUntil < until {
			until = p.fetchStallUntil
		}
	case p.fq.len() >= p.cfg.FetchQueueCap:
	default:
		return 0, 0, false // fetch would access the I-cache
	}

	return until, stall, true
}

// tryElide jumps p.cycle over the maximal provably quiescent span, folding
// the per-cycle accounting in closed form. A no-op whenever the upcoming
// cycle is not quiescent or the proof yields an empty span.
func (p *Pipeline) tryElide() {
	target, stall, ok := p.quiesce()
	if !ok {
		return
	}
	if at, pending := p.events.NextAt(p.cycle); pending && at < target {
		target = at
	}
	// Cap at the watchdog deadlines so a deadlocked span fails on the same
	// cycle, with the same message, as the stepped loop.
	if p.cfg.MaxCycles < target {
		target = p.cfg.MaxCycles
	}
	if w := p.lastRetireCycle + noRetireCycles + 1; w < target {
		target = w
	}
	if target <= p.cycle {
		return
	}

	span := target - p.cycle
	occ := uint64(p.rob.len())
	p.stats.OccupancySum += span * occ
	if occ > p.stats.MaxOccupancy {
		p.stats.MaxOccupancy = occ
	}
	switch stall {
	case elideROBFull:
		p.stats.StallROBFull += span
	case elidePhysRegs:
		p.stats.StallPhysRegs += span
	case elideLoadFull:
		p.stats.StallLSQFull += span
	case elideStoreFull:
		if p.cfg.MemSys == MemMDTSFC {
			p.stats.StallFIFOFull += span
		} else {
			p.stats.StallLSQFull += span
		}
	case elideTags:
		p.stats.StallTags += span
		p.stats.PredTagStallCycles += span
		p.pred.TagStalls += span
	}
	p.cycle = target
	p.stats.Cycles = p.cycle
	p.stats.CyclesElided += span
	p.checkWatchdogs()
}

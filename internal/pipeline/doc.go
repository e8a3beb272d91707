// This file documents the pipeline's cycle model in one place; the stage
// implementations live in pipeline.go and the memory subsystems in
// memsys.go.
//
// # Cycle model
//
// Each call to step() advances one cycle through six phases, in an order
// chosen so same-cycle interactions resolve deterministically:
//
//  1. complete — completion events scheduled for this cycle fire in
//     age order: results are written to the physical register file,
//     branches resolve (mispredicts recover immediately), and pending
//     memory-dependence violations trigger recovery.
//  2. retire — up to Width completed instructions leave the ROB head in
//     order. Each is validated field-by-field against the reference
//     stream: read straight from the columns of a replay view, or from
//     the record of any other source (the golden trace). Stores commit
//     through the store FIFO (or LSQ) to memory; loads and stores run
//     their MDT/SFC retirement hooks. The value-replay subsystem performs
//     its retirement-time re-read here, before validation, and may itself
//     trigger recovery.
//  3. issue — the scheduler issues up to Width ready instructions
//     oldest-first. It is wakeup-driven, not a ROB scan: writebacks,
//     dependence-tag wakeups and stall-bit clearing arm a ready bitset
//     over ROB slots, and issue walks only its set bits. Memory
//     instructions additionally need their consumed dependence tag ready
//     and their stall bit clear (both waived at the ROB head — the §2.2
//     lockup bypass). Execution is performed at issue: operands are
//     read, addresses computed, the memory subsystem consulted, and a
//     completion event scheduled latency cycles ahead. The memory unit
//     may instead *drop* the instruction (structural conflict,
//     corruption), returning it to the scheduler with its stall bit set —
//     the paper's re-execution mechanism. A count of stalled ROB entries
//     lets the clearing, which runs whenever the MDT or SFC frees an
//     entry, skip the ROB when no bit is set.
//  4. dispatch — up to Width instructions move from the fetch queue into
//     the ROB: memory-dependence-predictor lookup (may stall on tag-pool
//     exhaustion), source renaming, destination allocation (the entry
//     keeps the destination's previous mapping), and memory-subsystem slot
//     allocation (LSQ entries or store-FIFO slots). No RAT copy is taken.
//  5. fetch — up to Width instructions per cycle from the I-cache,
//     bounded by FetchBranches conditional branches and ended by any
//     predicted-taken transfer. Conditional branches are predicted by
//     gshare, with the Figure 4 oracle converting 80% of correct-path
//     mispredictions; the speculative global history is checkpointed
//     per instruction.
//  6. bookkeeping — cycle counters, occupancy statistics, and the
//     MDT/SFC fossil-reclamation bound (the oldest in-flight sequence
//     number).
//
// # Memory subsystems
//
// Four memory subsystems plug in behind one interface, memSystem, and each
// §4 comparator is the paper's structure plus or minus one search:
//
//   - lsqSystem hosts the idealized LSQ baseline (core.LSQ).
//   - valueReplaySystem embeds lsqSystem, bound to the LSQ that
//     core.ValueReplay embeds: the LSQ without its load-queue search. It
//     overrides only executeStore (record the store, search nothing),
//     preRetireLoad (the retirement-time re-read) and retireLoad.
//   - mdtSFCSystem (the paper's design) and mvSFCSystem (the multi-version
//     alternative) embed one MDT + store-FIFO half, mdtFIFO. The half owns
//     dispatch, the ROB-head load and store bypass (§2.2), load retirement
//     and the SFC's full/partial/miss forwarding outcome; each system adds
//     its own SFC's conflict, corruption, reclamation-bound and
//     store-retirement code.
//
// # Correct-path tracking and wrong-path execution
//
// The reference stream (a replay view, or the golden trace it is pinned to)
// drives two things. At fetch, the pipeline knows whether it is on the
// correct path (each correct-path instruction carries its trace index);
// when a prediction diverges from the stream, subsequent fetches are
// wrong-path: they execute normally — computing garbage values, touching
// the caches, writing the SFC — until a recovery squashes them.
// Out-of-segment wrong-path fetch degenerates to NOPs, and wrong-path
// memory accesses are force-aligned. At retirement, every instruction must
// match its stream record exactly; a wrong-path instruction reaching
// retirement, or any value mismatch, fails the run. This is the paper's
// validation methodology and the repository's strongest invariant: an
// unsound forwarding or disambiguation path cannot hide.
//
// # Recovery
//
// All recoveries are suffix flushes: every instruction with sequence number
// >= the flush point is squashed (ROB suffix plus the whole fetch queue),
// the RAT is restored to its state before the first squashed instruction
// renamed, physical registers and dependence tags are returned, the memory
// subsystem squashes its speculative state, and fetch redirects after the
// penalty. The modelled machine holds a RAT checkpoint per instruction and
// restores it in one step; the simulator reaches the same map by undoing
// the squashed renames youngest first (each writes back its destination's
// previous mapping), so the one-step recovery and its penalty are
// unchanged. For the MDT/SFC subsystem a flush is "partial" in the paper's
// sense: the MDT is untouched and the SFC either records corruption (or a
// flush-endpoint window), or — when no SFC-resident store survives — is
// flushed outright.
package pipeline

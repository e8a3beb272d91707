package core

import "fmt"

// PredictorMode selects how the producer-set predictor inserts dependences.
type PredictorMode uint8

const (
	// PredOff disables prediction entirely.
	PredOff PredictorMode = iota
	// PredTrueOnly inserts a dependence only on true violations (the
	// paper's NOT-ENF configuration, and the mode used with the LSQ, which
	// never suffers anti or output violations).
	PredTrueOnly
	// PredPairwise inserts producer→consumer dependences for true, anti,
	// and output violations (the paper's ENF configuration on the baseline
	// processor).
	PredPairwise
	// PredTotalOrder additionally treats every instruction involved in a
	// violation as both a producer and a consumer, enforcing a total
	// ordering on loads and stores within a producer set (the paper's ENF
	// configuration on the aggressive processor, §3.2).
	PredTotalOrder
)

func (m PredictorMode) String() string {
	switch m {
	case PredOff:
		return "off"
	case PredTrueOnly:
		return "true-only"
	case PredPairwise:
		return "pairwise"
	case PredTotalOrder:
		return "total-order"
	}
	return "unknown"
}

// PredictorConfig sizes the producer-set predictor. The defaults follow
// Figure 4: 16K-entry PT and CT, 4K producer ids, 512-entry LFPT.
type PredictorConfig struct {
	Mode      PredictorMode
	PTEntries int // PC-indexed producer table
	CTEntries int // PC-indexed consumer table
	NumSets   int // producer-set ids
	LFPTSize  int // last-fetched-producer table entries
	NumTags   int // dependence-tag pool; 0 => LFPTSize + 4096
}

// DefaultPredictorConfig returns the Figure 4 predictor geometry in the
// given mode.
func DefaultPredictorConfig(mode PredictorMode) PredictorConfig {
	return PredictorConfig{
		Mode:      mode,
		PTEntries: 16 << 10,
		CTEntries: 16 << 10,
		NumSets:   4 << 10,
		LFPTSize:  512,
	}
}

func (c PredictorConfig) withDefaults() PredictorConfig {
	if c.PTEntries <= 0 {
		c.PTEntries = 16 << 10
	}
	if c.CTEntries <= 0 {
		c.CTEntries = 16 << 10
	}
	if c.NumSets <= 0 {
		c.NumSets = 4 << 10
	}
	if c.LFPTSize <= 0 {
		c.LFPTSize = 512
	}
	if c.NumTags <= 0 {
		c.NumTags = c.LFPTSize + 4096
	}
	return c
}

// TagID names a dependence tag. Tags behave like physical registers for
// predicted memory dependences: a predicted consumer may not issue until the
// tag it consumes is ready, and a producer readies its tag when it completes.
type TagID int32

// NoTag is the invalid tag.
const NoTag TagID = -1

type tagState struct {
	refs  int // producer ref + LFPT ref + waiting-consumer refs
	ready bool
	free  bool
}

type lfptEntry struct {
	tag   TagID
	valid bool
}

// Predictor is the producer-set memory dependence predictor (paper §2.1).
// It adapts the store-set predictor: a PC-indexed producer table (PT) and
// consumer table (CT) map instructions to producer-set ids, and a
// last-fetched-producer table (LFPT) carries the dependence tag of each
// set's most recently fetched producer.
type Predictor struct {
	cfg  PredictorConfig
	pt   []uint32 // 0 = invalid, else set id
	ct   []uint32
	lfpt []lfptEntry

	tags     []tagState
	freeTags []TagID
	tagSlot  []int // LFPT slot a tag currently occupies, -1 if none

	nextSet uint32

	// WakeHook, when non-nil, fires each time a tag transitions from
	// not-ready to ready (producer issue, or forced readiness when a
	// producer is squashed). The pipeline's wakeup scheduler uses it to arm
	// waiting consumers instead of polling TagReady every cycle. The hook
	// runs synchronously inside ProducerComplete/ProducerDone and must not
	// call back into the predictor.
	WakeHook func(TagID)

	// Stats.
	Violations uint64
	SetMerges  uint64
	TagStalls  uint64 // dispatch stalls due to tag-pool exhaustion
}

// NewPredictor builds a predictor.
func NewPredictor(cfg PredictorConfig) *Predictor {
	cfg = cfg.withDefaults()
	p := &Predictor{
		cfg:     cfg,
		pt:      make([]uint32, cfg.PTEntries),
		ct:      make([]uint32, cfg.CTEntries),
		lfpt:    make([]lfptEntry, cfg.LFPTSize),
		tags:    make([]tagState, cfg.NumTags),
		tagSlot: make([]int, cfg.NumTags),
	}
	p.freeTags = make([]TagID, cfg.NumTags)
	for i := range p.freeTags {
		p.freeTags[i] = TagID(cfg.NumTags - 1 - i)
		p.tags[i].free = true
		p.tagSlot[i] = -1
	}
	return p
}

// Config returns the predictor configuration.
func (p *Predictor) Config() PredictorConfig { return p.cfg }

// Mode returns the enforcement mode.
func (p *Predictor) Mode() PredictorMode { return p.cfg.Mode }

func (p *Predictor) ptIdx(pc uint64) int { return int(pc>>2) & (p.cfg.PTEntries - 1) }
func (p *Predictor) ctIdx(pc uint64) int { return int(pc>>2) & (p.cfg.CTEntries - 1) }
func (p *Predictor) lfptIdx(set uint32) int {
	return int(set) & (p.cfg.LFPTSize - 1)
}

// Dispatch is the result of a load or store entering the memory dependence
// prediction stage.
type Dispatch struct {
	// ConsumeTag, if not NoTag, is the dependence tag the instruction must
	// wait on before issuing.
	ConsumeTag TagID
	// ProduceTag, if not NoTag, is the tag the instruction readies when it
	// completes.
	ProduceTag TagID
}

// Lookup performs the dispatch-time PT/CT access for a load or store. It
// returns ok=false when the instruction produces a tag but the tag pool is
// exhausted; dispatch must stall and retry.
//
// An instruction that is both a consumer and a producer reads the set's
// current LFPT tag before overwriting it, so it depends on the previous
// producer, not itself.
func (p *Predictor) Lookup(pc uint64) (Dispatch, bool) {
	d := Dispatch{ConsumeTag: NoTag, ProduceTag: NoTag}
	if p.cfg.Mode == PredOff {
		return d, true
	}
	if set := p.ct[p.ctIdx(pc)]; set != 0 {
		e := p.lfpt[p.lfptIdx(set)]
		if e.valid {
			d.ConsumeTag = e.tag
			p.tags[e.tag].refs++ // consumer reference, released by ReleaseConsume
		}
	}
	if set := p.pt[p.ptIdx(pc)]; set != 0 {
		tag, ok := p.allocTag()
		if !ok {
			p.TagStalls++
			// Undo the consumer reference; the caller will retry Lookup.
			if d.ConsumeTag != NoTag {
				p.unref(d.ConsumeTag)
			}
			return Dispatch{ConsumeTag: NoTag, ProduceTag: NoTag}, false
		}
		slot := p.lfptIdx(set)
		if old := p.lfpt[slot]; old.valid {
			p.tagSlot[old.tag] = -1
			p.unref(old.tag) // LFPT reference released
		}
		p.lfpt[slot] = lfptEntry{tag: tag, valid: true}
		p.tags[tag].refs++ // LFPT reference
		p.tagSlot[tag] = slot
		d.ProduceTag = tag
	}
	return d, true
}

// LookupWouldStall reports whether Lookup(pc) would return ok=false — the
// instruction is a predicted producer (PT hit) and the tag pool is empty —
// without performing the access. Unlike a failed Lookup it is free of side
// effects: it does not count a TagStall, and it skips the consumer-reference
// take-and-undo (which a failed Lookup performs but which is itself net
// zero, since a valid LFPT entry always holds its own reference and thus
// never drops to zero during the undo). Idle-cycle elision uses it to prove
// that a tag-stalled dispatch stays stalled, then folds TagStalls in closed
// form over the skipped span.
func (p *Predictor) LookupWouldStall(pc uint64) bool {
	return p.cfg.Mode != PredOff && p.pt[p.ptIdx(pc)] != 0 && len(p.freeTags) == 0
}

func (p *Predictor) allocTag() (TagID, bool) {
	n := len(p.freeTags)
	if n == 0 {
		return NoTag, false
	}
	tag := p.freeTags[n-1]
	p.freeTags = p.freeTags[:n-1]
	p.tags[tag] = tagState{refs: 1, ready: false} // producer reference
	p.tagSlot[tag] = -1
	return tag, true
}

func (p *Predictor) unref(tag TagID) {
	t := &p.tags[tag]
	if t.free {
		panic(fmt.Sprintf("core: unref of free tag %d", tag))
	}
	t.refs--
	if t.refs < 0 {
		panic(fmt.Sprintf("core: negative refs on tag %d", tag))
	}
	if t.refs == 0 {
		if p.tagSlot[tag] >= 0 {
			panic(fmt.Sprintf("core: tag %d freed while in LFPT", tag))
		}
		t.free = true
		p.freeTags = append(p.freeTags, tag)
	}
}

// TagReady reports whether a consumer may issue.
func (p *Predictor) TagReady(tag TagID) bool {
	return tag == NoTag || p.tags[tag].ready
}

// ProducerComplete marks a produced tag ready, waking its consumers.
func (p *Predictor) ProducerComplete(tag TagID) {
	if tag != NoTag {
		p.setReady(tag)
	}
}

// setReady marks a tag ready and fires the wake hook on the first
// transition. Readiness is monotone for a tag's lifetime: it is cleared only
// when allocTag recycles the tag for a new producer.
func (p *Predictor) setReady(tag TagID) {
	t := &p.tags[tag]
	if t.ready {
		return
	}
	t.ready = true
	if p.WakeHook != nil {
		p.WakeHook(tag)
	}
}

// ProducerDone releases the producer's reference, on retirement or squash.
// A squashed producer's tag is forced ready so that younger consumers (which
// may have been fetched after the squash and read the stale LFPT entry)
// never wait forever on an instruction that no longer exists.
func (p *Predictor) ProducerDone(tag TagID, squashed bool) {
	if tag == NoTag {
		return
	}
	if squashed {
		p.setReady(tag)
	}
	p.unref(tag)
}

// ReleaseConsume releases a consumer's reference once the consumer has
// issued (its wait is over) or been squashed.
func (p *Predictor) ReleaseConsume(tag TagID) {
	if tag != NoTag {
		p.unref(tag)
	}
}

// RecordViolation trains the predictor after the MDT (or LSQ) reports a
// violation between producerPC (the earlier instruction) and consumerPC (the
// later one). Producer-set merging follows the store-set rules: if neither
// instruction belongs to a set a new one is allocated; if one does, the
// other joins it; if both do, the smaller-numbered set wins.
func (p *Predictor) RecordViolation(kind ViolationKind, producerPC, consumerPC uint64) {
	switch p.cfg.Mode {
	case PredOff:
		return
	case PredTrueOnly:
		if kind != TrueViolation {
			return
		}
	}
	p.Violations++
	sidP := p.pt[p.ptIdx(producerPC)]
	sidC := p.ct[p.ctIdx(consumerPC)]
	var winner uint32
	switch {
	case sidP == 0 && sidC == 0:
		winner = p.allocSet()
	case sidP == 0:
		winner = sidC
	case sidC == 0:
		winner = sidP
	case sidP == sidC:
		winner = sidP
	default:
		if sidP < sidC {
			winner = sidP
		} else {
			winner = sidC
		}
		p.SetMerges++
	}
	p.pt[p.ptIdx(producerPC)] = winner
	p.ct[p.ctIdx(consumerPC)] = winner
	if p.cfg.Mode == PredTotalOrder {
		// Both instructions become producers *and* consumers, totally
		// ordering the set's members.
		p.ct[p.ctIdx(producerPC)] = winner
		p.pt[p.ptIdx(consumerPC)] = winner
	}
}

func (p *Predictor) allocSet() uint32 {
	p.nextSet++
	if p.nextSet > uint32(p.cfg.NumSets) {
		p.nextSet = 1 // recycle ids; stale PT/CT entries just alias
	}
	return p.nextSet
}

// LiveTags returns the number of allocated tags (for tests).
func (p *Predictor) LiveTags() int { return p.cfg.NumTags - len(p.freeTags) }

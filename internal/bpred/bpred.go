// Package bpred implements the pluggable front-end branch predictors.
//
// The paper's own front end is the 8 Kbit gshare predictor whose
// mispredictions are partially corrected by an oracle ("8Kbit Gshare + 80%
// mispredicts turned to correct predictions by an oracle", Figure 4). The
// oracle filter is deterministic: whether a given misprediction is corrected
// is a pure function of the dynamic instruction's sequence number and the
// configured seed, so runs are reproducible. A TAGE predictor (tage.go) is
// available behind the same Predictor interface as a realism axis; it is
// selected with Config.Kind and, by convention, runs without the oracle.
//
// The global history is updated speculatively at prediction time; the
// pipeline checkpoints and restores it across flushes through opaque uint32
// tokens (for gshare the token is the history register itself; TAGE indexes
// an internal snapshot ring). Counters are updated non-speculatively at
// branch retirement.
package bpred

// Kind selects the predictor implementation.
type Kind uint8

const (
	// KindGshare is the paper's Figure 4 front end (the default).
	KindGshare Kind = iota
	// KindTage is the TAGE predictor: a bimodal base plus tagged tables
	// with geometrically increasing history lengths.
	KindTage
)

func (k Kind) String() string {
	switch k {
	case KindGshare:
		return "gshare"
	case KindTage:
		return "tage"
	}
	return "unknown"
}

// Config describes the predictor. The gshare fields double as the TAGE base
// bimodal sizing; the Tage* fields are ignored by gshare and zero for it, so
// configurations remain comparable with == (the pipeline's reuse check).
type Config struct {
	Kind          Kind
	Bits          int     // base-predictor storage in bits (2 bits/counter)
	HistoryLen    int     // gshare global history length in bits
	OracleFixFrac float64 // fraction of base mispredictions the oracle corrects
	Seed          uint64

	// TAGE geometry (zero for gshare; filled by WithDefaults for TAGE).
	TageTables  int // number of tagged tables
	TageEntries int // entries per tagged table (power of two)
	TageTagBits int // partial tag width
	TageMinHist int // shortest tagged history length
	TageMaxHist int // longest tagged history length
	// SpecDepth bounds the number of in-flight speculative checkpoints the
	// TAGE snapshot ring must keep intact; the pipeline raises it to cover
	// its ROB plus fetch queue.
	SpecDepth int
}

// DefaultConfig returns the paper's Figure 4 predictor: 8 Kbit gshare with an
// 80% oracle correction rate.
func DefaultConfig() Config {
	return Config{Bits: 8 << 10, HistoryLen: 12, OracleFixFrac: 0.80, Seed: 0x5fc_4d7}
}

// TageConfig returns the default TAGE configuration: the same 8 Kbit base
// bimodal storage, four tagged tables with history lengths from 6 to 120,
// and no oracle correction (TAGE is the realistic-front-end axis; comparing
// it against gshare-without-oracle is the interesting experiment).
func TageConfig() Config {
	return Config{
		Kind:        KindTage,
		Bits:        8 << 10,
		HistoryLen:  12, // unused by TAGE; kept for config readability
		Seed:        0x5fc_4d7,
		TageTables:  4,
		TageEntries: 1 << 10,
		TageTagBits: 9,
		TageMinHist: 6,
		TageMaxHist: 120,
		SpecDepth:   1 << 12,
	}
}

// WithDefaults fills the TAGE geometry fields a caller left zero, so that a
// sparse Config{Kind: KindTage} works and the pipeline's reuse-if-same-config
// comparison sees one canonical form. Gshare configs pass through unchanged.
func (c Config) WithDefaults() Config {
	if c.Kind != KindTage {
		return c
	}
	d := TageConfig()
	if c.Bits <= 0 {
		c.Bits = d.Bits
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = d.HistoryLen
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.TageTables <= 0 {
		c.TageTables = d.TageTables
	}
	if c.TageEntries <= 0 {
		c.TageEntries = d.TageEntries
	}
	if c.TageTagBits <= 0 {
		c.TageTagBits = d.TageTagBits
	}
	if c.TageMinHist <= 0 {
		c.TageMinHist = d.TageMinHist
	}
	if c.TageMaxHist <= c.TageMinHist {
		c.TageMaxHist = d.TageMaxHist
	}
	if c.SpecDepth <= 0 {
		c.SpecDepth = d.SpecDepth
	}
	// The snapshot ring is indexed by version & (pow2-1).
	p := 1
	for p < c.SpecDepth {
		p *= 2
	}
	c.SpecDepth = p
	return c
}

// Counters is the statistics block every predictor maintains (correct-path
// conditional branches only; the pipeline drives the Lookups and BaseWrong
// fields, the predictor itself the rest).
type Counters struct {
	Lookups   uint64
	BaseWrong uint64 // predictor's own wrong predictions (pre-oracle)

	// TAGE-specific (zero for gshare).
	TaggedProvider uint64 // predictions supplied by a tagged table
	AltUsed        uint64 // weak newly-allocated provider overridden by altpred
	Allocs         uint64 // tagged entries allocated on mispredict
}

func (c *Counters) reset() { *c = Counters{} }

// Predictor is the front-end branch predictor interface. History checkpoints
// are opaque uint32 tokens: History returns the current token, Speculate
// shifts a predicted direction in and returns the new token, Restore rewinds
// to a token, and Resolve rewinds to the checkpoint taken *before* a
// mispredicted conditional branch and shifts its resolved direction in.
// Tokens stay valid as long as the instruction they were taken for is in
// flight (gshare tokens are the history value itself and never expire; TAGE
// tokens index a snapshot ring sized for the pipeline's in-flight window).
type Predictor interface {
	// Predict returns the direction prediction for the branch at pc
	// without changing any speculative state.
	Predict(pc uint64) bool
	// Speculate shifts a predicted direction into the speculative history
	// and returns the checkpoint token for the post-shift state.
	Speculate(taken bool) uint32
	// History returns the token for the current speculative state.
	History() uint32
	// Restore rewinds the speculative history to a checkpointed token.
	Restore(token uint32)
	// Resolve rewinds to the checkpoint taken before a mispredicted
	// conditional branch (its pre-prediction token) and shifts the
	// resolved direction in.
	Resolve(before uint32, taken bool)
	// Update trains the predictor for a retiring correct-path branch,
	// using the checkpoint taken before the branch predicted.
	Update(pc uint64, before uint32, taken bool)
	// OracleFixes reports whether the deterministic oracle corrects the
	// misprediction of the dynamic branch with the given sequence number.
	OracleFixes(seq uint64) bool
	// Counters returns the predictor's statistics block.
	Counters() *Counters
	// Config returns the (canonicalized) configuration.
	Config() Config
	// Reset restores the freshly-built state, reusing allocations.
	Reset()
}

// New builds the predictor selected by cfg.Kind.
func New(cfg Config) Predictor {
	if cfg.Kind == KindTage {
		return NewTage(cfg)
	}
	return NewGshare(cfg)
}

// Gshare is the 2-bit-counter gshare predictor.
type Gshare struct {
	cfg      Config
	counters []uint8
	mask     uint32
	hist     uint32 // speculative global history

	stats Counters
}

// NewGshare builds the gshare predictor.
func NewGshare(cfg Config) *Gshare {
	n := cfg.Bits / 2
	if n <= 0 {
		n = 1
	}
	// round down to a power of two
	p := 1
	for p*2 <= n {
		p *= 2
	}
	g := &Gshare{cfg: cfg, counters: make([]uint8, p), mask: uint32(p - 1)}
	for i := range g.counters {
		g.counters[i] = 1 // weakly not-taken
	}
	return g
}

func (g *Gshare) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ g.hist) & g.mask
}

// Predict returns the gshare direction prediction for the branch at pc. It
// does not update any state; call Speculate to shift the predicted direction
// into the history.
func (g *Gshare) Predict(pc uint64) bool {
	return g.counters[g.index(pc)] >= 2
}

// Speculate shifts a predicted direction into the speculative global
// history and returns the history value *after* the shift, which the
// pipeline stores in the instruction's checkpoint.
func (g *Gshare) Speculate(taken bool) uint32 {
	g.hist = g.hist << 1 & (1<<uint(g.cfg.HistoryLen) - 1)
	if taken {
		g.hist |= 1
	}
	return g.hist
}

// History returns the current speculative history.
func (g *Gshare) History() uint32 { return g.hist }

// Restore rewinds the speculative history to a checkpointed value after a
// pipeline flush.
func (g *Gshare) Restore(hist uint32) { g.hist = hist }

// Resolve rewinds to the pre-branch history and shifts the resolved
// direction in (mispredict recovery: the speculative shift was wrong).
func (g *Gshare) Resolve(before uint32, taken bool) {
	h := before << 1
	if taken {
		h |= 1
	}
	g.hist = h
}

// Update trains the 2-bit counter for a retiring correct-path branch. The
// index is recomputed with the history the branch saw at prediction time.
func (g *Gshare) Update(pc uint64, histBefore uint32, taken bool) {
	idx := (uint32(pc>>2) ^ histBefore) & g.mask
	c := g.counters[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	g.counters[idx] = c
}

// OracleFixes reports whether the oracle corrects the misprediction of the
// dynamic branch with the given sequence number. Deterministic in (seq,
// seed): a splitmix64-style hash is compared against the configured
// fraction.
func (g *Gshare) OracleFixes(seq uint64) bool {
	return oracleFixes(g.cfg, seq)
}

func oracleFixes(cfg Config, seq uint64) bool {
	if cfg.OracleFixFrac >= 1 {
		return true
	}
	if cfg.OracleFixFrac <= 0 {
		return false
	}
	h := mix64(seq + cfg.Seed)
	// Compare the top 53 bits against the fraction.
	return float64(h>>11)/float64(1<<53) < cfg.OracleFixFrac
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Counters returns the statistics block.
func (g *Gshare) Counters() *Counters { return &g.stats }

// Config returns the predictor configuration.
func (g *Gshare) Config() Config { return g.cfg }

// Reset restores the freshly-built state — counters weakly not-taken, empty
// history, zeroed statistics — reusing the counter table.
func (g *Gshare) Reset() {
	for i := range g.counters {
		g.counters[i] = 1
	}
	g.hist = 0
	g.stats.reset()
}

var _ Predictor = (*Gshare)(nil)

package core

// PCAX-style load-address prediction (Murthy & Sohi): a PC-indexed table
// predicts a load's data address at dispatch, several cycles before the
// address generation at execute. The pipeline uses the prediction to
// pre-probe the SFC and MDT — warming the set's way memo — so that a
// correctly predicted load's execute-time probe is a validated single-entry
// hit instead of a full set walk.
//
// Harmlessness: a pre-probe only touches the lastWay memos (SFC.Preprobe /
// MDT.Preprobe), and every memo read is validated against the entry's tag
// before use. A mispredicted address therefore warms the wrong set's memo at
// worst, which can only change how many entries the real probe examines
// (SearchEntriesSFC/MDT) — never a forwarding, disambiguation, or
// architectural outcome.

// AddrPredConfig enables the address predictor. The zero value disables it;
// comparable so pipeline configs stay ==-comparable.
type AddrPredConfig struct {
	Enabled bool
}

// AddrPredDefaults returns the enabled configuration.
func AddrPredDefaults() AddrPredConfig { return AddrPredConfig{Enabled: true} }

// The address predictor's geometry, which no configuration varies.
const (
	addrPredEntries = 512 // table entries (a power of two)
	addrPredMinConf = 2   // confidence required before predicting
)

type addrPredEntry struct {
	tag      uint32
	lastAddr uint64
	stride   int64
	conf     uint8 // 0..3
}

// AddrPred is the PC-indexed load-address predictor. It predicts
// lastAddr+stride for PCs whose stride has repeated (stride 0 covers
// loads that re-touch one address, the PCAX sweet spot).
type AddrPred struct {
	tab [addrPredEntries]addrPredEntry
}

// NewAddrPred builds the predictor.
func NewAddrPred() *AddrPred { return &AddrPred{} }

// PredictAddr returns the predicted data address for the load at pc, and
// whether the entry is confident enough to use. Read-only.
func (a *AddrPred) PredictAddr(pc uint64) (uint64, bool) {
	e := &a.tab[uint32(pc>>2)&(addrPredEntries-1)]
	if e.tag != uint32(pc>>2) || e.conf < addrPredMinConf {
		return 0, false
	}
	return e.lastAddr + uint64(e.stride), true
}

// Train records the load at pc actually accessed addr (called at execute,
// once the address is known).
func (a *AddrPred) Train(pc, addr uint64) {
	e := &a.tab[uint32(pc>>2)&(addrPredEntries-1)]
	if e.tag != uint32(pc>>2) {
		*e = addrPredEntry{tag: uint32(pc >> 2), lastAddr: addr}
		return
	}
	stride := int64(addr - e.lastAddr)
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		}
		if e.conf == 0 {
			e.stride = stride
		}
	}
	e.lastAddr = addr
}

// Reset restores the freshly-built state, reusing the table.
func (a *AddrPred) Reset() {
	for i := range a.tab {
		a.tab[i] = addrPredEntry{}
	}
}

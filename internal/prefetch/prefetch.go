// Package prefetch implements the L1D hardware prefetchers.
//
// The only engine so far is a PC-indexed stride prefetcher in the Chen &
// Baer reference-prediction-table style: each load PC hashes to an RPT entry
// holding its last address, last observed stride, and a 2-bit confidence
// counter. The pipeline trains it on L1D demand misses at execute; once an
// entry's stride is confirmed, the pipeline issues degree prefetches placed
// distance strides ahead of the missing access into the L1D fill path.
// Prefetched lines are tagged in the cache so demand hits on them are
// counted as prefetch hits, separating coverage from ordinary locality.
package prefetch

// Kind selects the prefetch engine.
type Kind uint8

const (
	// KindNone disables prefetching (the default; golden figures).
	KindNone Kind = iota
	// KindStride is the PC-indexed stride prefetcher.
	KindStride
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindStride:
		return "stride"
	}
	return "unknown"
}

// Config selects the L1D prefetcher. The zero value disables prefetching;
// it is comparable so pipeline configs remain ==-comparable.
type Config struct {
	Kind Kind
}

// StrideConfig returns the stride-prefetcher configuration.
func StrideConfig() Config { return Config{Kind: KindStride} }

// The stride prefetcher's geometry, which no configuration varies.
const (
	entries  = 256 // RPT entries (a power of two)
	degree   = 2   // prefetches issued per trained miss
	distance = 4   // strides ahead of the missing access
)

type rptEntry struct {
	tag      uint32
	lastAddr uint64
	stride   int64
	conf     uint8 // 0..3; issue when >= confThreshold
}

const confThreshold = 2

// Stride is the PC-indexed reference prediction table.
type Stride struct {
	rpt [entries]rptEntry
	out []uint64 // reused candidate buffer returned by Observe
}

// NewStride builds the stride prefetcher.
func NewStride() *Stride {
	return &Stride{out: make([]uint64, 0, degree)}
}

// Observe trains the table on a demand miss by the load at pc to addr and
// returns the prefetch candidate addresses to issue (empty until the
// entry's stride is confirmed). The returned slice is reused by the next
// Observe call.
func (s *Stride) Observe(pc, addr uint64) []uint64 {
	idx := uint32(pc>>2) & (entries - 1)
	tag := uint32(pc >> 2)
	e := &s.rpt[idx]
	s.out = s.out[:0]

	if e.tag != tag {
		*e = rptEntry{tag: tag, lastAddr: addr}
		return s.out
	}
	stride := int64(addr - e.lastAddr)
	if stride == e.stride && stride != 0 {
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
	if e.conf >= confThreshold && e.stride != 0 {
		for k := 0; k < degree; k++ {
			s.out = append(s.out, addr+uint64(e.stride*int64(distance+k)))
		}
	}
	return s.out
}

// Reset restores the freshly-built state, reusing the table.
func (s *Stride) Reset() {
	for i := range s.rpt {
		s.rpt[i] = rptEntry{}
	}
	s.out = s.out[:0]
}

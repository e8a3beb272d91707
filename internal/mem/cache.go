package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks that the geometry is consistent and power-of-two sized.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: non-positive cache geometry %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("mem: size %d not divisible by ways*line %d", c.SizeBytes, c.Ways*c.LineBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d not a power of two", sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	}
	return nil
}

type cacheLine struct {
	tag      uint64
	valid    bool
	prefetch bool   // filled by a prefetch, not yet demanded
	lru      uint64 // last-touch stamp
}

// Cache is a tag-only set-associative cache with true-LRU replacement. Data
// contents live in the Sparse backing memory; Cache models only hit/miss
// state for the latency model.
type Cache struct {
	cfg    CacheConfig
	sets   int
	lineSh uint        // addr >> lineSh is the block number
	setSh  uint        // block >> setSh is the tag
	lines  []cacheLine // sets*ways, row-major by set
	stamp  uint64

	// last is the block of the latest Access, valid while lastOK. Its line
	// is resident, not prefetch-tagged, and holds the newest LRU stamp, so
	// an immediate re-access is a hit needing neither the tag search nor a
	// fresh stamp: replacement depends only on the order of the stamps,
	// which skipping one leaves unchanged. PrefetchFill forgets it when it
	// installs a (newer) line, and so does Reset.
	last   uint64
	lastOK bool

	Hits   uint64
	Misses uint64

	// Prefetch accounting: lines installed by PrefetchFill, and demand hits
	// that landed on a still-prefetch-tagged line (useful prefetches).
	PrefetchFills uint64
	PrefetchHits  uint64
}

// NewCache builds a cache with the given geometry.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:    cfg,
		sets:   cfg.Sets(),
		lineSh: log2(cfg.LineBytes),
		setSh:  log2(cfg.Sets()),
		lines:  make([]cacheLine, cfg.Sets()*cfg.Ways),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access touches the line containing addr, allocating it on a miss, and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	block := addr >> c.lineSh
	if c.lastOK && block == c.last {
		c.Hits++
		return true
	}
	c.last, c.lastOK = block, true
	c.stamp++
	set := int(block) & (c.sets - 1)
	tag := block >> c.setSh
	base := set * c.cfg.Ways
	victim := base
	for i := base; i < base+c.cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.stamp
			c.Hits++
			if ln.prefetch {
				ln.prefetch = false
				c.PrefetchHits++
			}
			return true
		}
		if !ln.valid {
			victim = i
		} else if c.lines[victim].valid && ln.lru < c.lines[victim].lru {
			victim = i
		}
	}
	c.lines[victim] = cacheLine{tag: tag, valid: true, lru: c.stamp}
	c.Misses++
	return false
}

// Probe reports whether addr would hit, without changing cache state.
func (c *Cache) Probe(addr uint64) bool {
	block := addr >> c.lineSh
	set := int(block) & (c.sets - 1)
	tag := block >> c.setSh
	base := set * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

// PrefetchFill installs the line containing addr with the prefetch tag set,
// reporting true when the line was already present (a redundant prefetch; no
// state changes, not even LRU, so redundant prefetches cannot perturb
// replacement). Fills count neither Hits nor Misses — prefetch traffic is
// accounted separately via PrefetchFills/PrefetchHits.
func (c *Cache) PrefetchFill(addr uint64) bool {
	block := addr >> c.lineSh
	set := int(block) & (c.sets - 1)
	tag := block >> c.setSh
	base := set * c.cfg.Ways
	victim := base
	for i := base; i < base+c.cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.tag == tag {
			return true
		}
		if !ln.valid {
			victim = i
		} else if c.lines[victim].valid && ln.lru < c.lines[victim].lru {
			victim = i
		}
	}
	c.stamp++
	c.lines[victim] = cacheLine{tag: tag, valid: true, prefetch: true, lru: c.stamp}
	c.lastOK = false
	c.PrefetchFills++
	return false
}

// log2 returns the base-2 logarithm of n, a power of two.
func log2(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// HierarchyConfig describes the full cache hierarchy and its latencies, in
// the form of the paper's Figure 4: L1 hit time plus additive miss
// penalties at each level.
type HierarchyConfig struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	L1HitCycles  int // cycles for an L1 hit (data available)
	L1MissCycles int // additional cycles when L1 misses and L2 hits
	L2MissCycles int // additional cycles when L2 also misses
}

// DefaultHierarchy returns the paper's Figure 4 memory hierarchy:
// 8 KB 2-way 128 B-line L1 I-cache (10-cycle miss), 8 KB 4-way 64 B-line L1
// D-cache (10-cycle miss), 512 KB 8-way 128 B-line L2 (100-cycle miss).
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:          CacheConfig{SizeBytes: 8 << 10, Ways: 2, LineBytes: 128},
		L1D:          CacheConfig{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64},
		L2:           CacheConfig{SizeBytes: 512 << 10, Ways: 8, LineBytes: 128},
		L1HitCycles:  2,
		L1MissCycles: 10,
		L2MissCycles: 100,
	}
}

// Hierarchy is the instantiated cache hierarchy.
type Hierarchy struct {
	cfg HierarchyConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// NewHierarchy instantiates the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1I: NewCache(cfg.L1I),
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// FetchLatency models an instruction fetch of the line containing addr and
// returns its latency in cycles (0 for an L1 I hit: fetch is pipelined).
func (h *Hierarchy) FetchLatency(addr uint64) int {
	if h.L1I.Access(addr) {
		return 0
	}
	if h.L2.Access(addr) {
		return h.cfg.L1MissCycles
	}
	return h.cfg.L1MissCycles + h.cfg.L2MissCycles
}

// DataLatency models a data access (load or committed store) to addr and
// returns the cycles until the data is available.
func (h *Hierarchy) DataLatency(addr uint64) int {
	if h.L1D.Access(addr) {
		return h.cfg.L1HitCycles
	}
	if h.L2.Access(addr) {
		return h.cfg.L1HitCycles + h.cfg.L1MissCycles
	}
	return h.cfg.L1HitCycles + h.cfg.L1MissCycles + h.cfg.L2MissCycles
}

// PrefetchData installs the line containing addr into the L1D (and L2, as
// the fill passes through it) with the prefetch tag set. It reports whether
// the line was already in the L1D (redundant) and, when it was not, the fill
// latency: how long a demand access arriving immediately would still wait.
func (h *Hierarchy) PrefetchData(addr uint64) (redundant bool, fillCycles int) {
	if h.L1D.PrefetchFill(addr) {
		return true, 0
	}
	if h.L2.PrefetchFill(addr) {
		return false, h.cfg.L1MissCycles
	}
	return false, h.cfg.L1MissCycles + h.cfg.L2MissCycles
}

// Reset invalidates every line and clears the LRU clock and hit/miss
// counters, restoring the freshly-built state without reallocating.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	c.stamp = 0
	c.lastOK = false
	c.Hits = 0
	c.Misses = 0
	c.PrefetchFills = 0
	c.PrefetchHits = 0
}

// Reset restores all three cache levels to their freshly-built state.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}

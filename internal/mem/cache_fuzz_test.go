package mem

import (
	"math/rand"
	"testing"
)

// refCache is the cache as it was before Access memoized its latest block:
// every call recomputes the tag shift and searches the set. It is the
// reference FuzzCacheVsReference holds Cache to.
type refCache struct {
	cfg    CacheConfig
	lineSh uint
	lines  []cacheLine
	stamp  uint64

	Hits, Misses, PrefetchFills, PrefetchHits uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	return &refCache{cfg: cfg, lineSh: log2(cfg.LineBytes), lines: make([]cacheLine, cfg.Sets()*cfg.Ways)}
}

func (c *refCache) locate(addr uint64) (tag uint64, base int) {
	block := addr >> c.lineSh
	sets := c.cfg.Sets()
	return block >> log2(sets), (int(block) & (sets - 1)) * c.cfg.Ways
}

func (c *refCache) access(addr uint64) bool {
	c.stamp++
	tag, base := c.locate(addr)
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

func (c *refCache) probe(addr uint64) bool {
	tag, base := c.locate(addr)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) prefetchFill(addr uint64) bool {
	tag, base := c.locate(addr)
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
	c.PrefetchFills++
	return false
}

func (c *refCache) reset() {
	*c = *newRefCache(c.cfg)
}

// fuzzCacheGeoms are small geometries where every set sees conflicts,
// including direct-mapped ones, where a prefetch fill can evict the line
// Access memoized.
var fuzzCacheGeoms = []CacheConfig{
	{SizeBytes: 16, Ways: 1, LineBytes: 16},  // one line
	{SizeBytes: 64, Ways: 1, LineBytes: 16},  // 4 sets, direct-mapped
	{SizeBytes: 64, Ways: 2, LineBytes: 8},   // 4 sets, 2-way
	{SizeBytes: 128, Ways: 4, LineBytes: 16}, // 2 sets, 4-way
	{SizeBytes: 32, Ways: 4, LineBytes: 8},   // fully associative
}

// FuzzCacheVsReference drives Cache and refCache through the same sequence
// of Access, Probe, PrefetchFill and Reset calls and compares every return
// value and hit, miss and prefetch counter after every call. Each op takes
// two bytes: the first picks the call (low nibble) and one of 16 address
// regions 1 MB apart, which share sets but not tags (high nibble); the
// second is the word offset inside the region. `make fuzz-smoke` runs it in
// CI with a short time budget; the seeded random sequences run every time.
func FuzzCacheVsReference(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for g := range fuzzCacheGeoms {
		ops := make([]byte, 512)
		r.Read(ops)
		f.Add(uint8(g), ops)
	}
	// Re-access one line around prefetch fills that evict it (direct-mapped).
	f.Add(uint8(1), []byte{0x00, 0, 0x00, 0, 0x1c, 0, 0x00, 0, 0x0c, 0, 0x00, 0, 0x00, 1})
	f.Fuzz(func(t *testing.T, geom uint8, ops []byte) {
		cfg := fuzzCacheGeoms[int(geom)%len(fuzzCacheGeoms)]
		c, ref := NewCache(cfg), newRefCache(cfg)
		for i := 0; i+1 < len(ops); i += 2 {
			addr := uint64(ops[i]>>4)<<20 | uint64(ops[i+1])<<2
			var op string
			var got, want bool
			switch k := ops[i] & 15; {
			case k < 8:
				op, got, want = "Access", c.Access(addr), ref.access(addr)
			case k < 12:
				op, got, want = "Probe", c.Probe(addr), ref.probe(addr)
			case k < 15:
				op, got, want = "PrefetchFill", c.PrefetchFill(addr), ref.prefetchFill(addr)
			default:
				op = "Reset"
				c.Reset()
				ref.reset()
			}
			if got != want {
				t.Fatalf("%+v op %d: %s(%#x) = %v, reference %v", cfg, i/2, op, addr, got, want)
			}
			if c.Hits != ref.Hits || c.Misses != ref.Misses ||
				c.PrefetchFills != ref.PrefetchFills || c.PrefetchHits != ref.PrefetchHits {
				t.Fatalf("%+v op %d: %s(%#x): hits/misses/fills/prefetch hits %d/%d/%d/%d, reference %d/%d/%d/%d",
					cfg, i/2, op, addr, c.Hits, c.Misses, c.PrefetchFills, c.PrefetchHits,
					ref.Hits, ref.Misses, ref.PrefetchFills, ref.PrefetchHits)
			}
		}
	})
}

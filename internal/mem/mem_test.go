package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseZeroDefault(t *testing.T) {
	m := NewSparse()
	if m.ByteAt(0xdeadbeef) != 0 || m.ReadUint(1<<40, 8) != 0 {
		t.Error("unmapped memory must read as zero")
	}
	if m.Pages() != 0 {
		t.Error("reads must not allocate pages")
	}
}

// Property: ReadUint(WriteUint(v)) == v for all sizes and addresses, including
// across page boundaries.
func TestSparseRoundtrip(t *testing.T) {
	m := NewSparse()
	f := func(addr uint64, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr &= 1<<48 - 1
		m.WriteUint(addr, size, v)
		want := v
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return m.ReadUint(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparsePageBoundary(t *testing.T) {
	m := NewSparse()
	addr := uint64(pageSize - 3)
	m.WriteUint(addr, 8, 0x0102030405060708)
	if got := m.ReadUint(addr, 8); got != 0x0102030405060708 {
		t.Fatalf("cross-page read: %#x", got)
	}
	if m.Pages() != 2 {
		t.Fatalf("expected 2 pages, got %d", m.Pages())
	}
}

// A multi-byte access at the top of the address space wraps explicitly,
// modulo 2^64 (see the package comment): byte i lives at addr+i mod 2^64.
func TestSparseWrapAtTop(t *testing.T) {
	m := NewSparse()
	top := ^uint64(0) // last byte of the address space
	m.WriteUint(top, 2, 0xBEEF)
	if got := m.ByteAt(top); got != 0xEF {
		t.Errorf("byte at top: %#x", got)
	}
	if got := m.ByteAt(0); got != 0xBE {
		t.Errorf("byte at 0 after wrap: %#x", got)
	}
	if got := m.ReadUint(top, 2); got != 0xBEEF {
		t.Errorf("wrapping read: %#x", got)
	}
	// An 8-byte access starting near the top wraps the same way.
	m.WriteUint(top-2, 8, 0x0807060504030201)
	if got := m.ReadUint(top-2, 8); got != 0x0807060504030201 {
		t.Errorf("wrapping word read: %#x", got)
	}
	if got := m.ByteAt(4); got != 0x08 {
		t.Errorf("wrapped high byte: %#x", got)
	}
}

// Reset unmaps every page; the TLB must not resurrect stale page pointers
// afterwards, and reads through it must not allocate pages.
func TestSparseResetInvalidatesTLB(t *testing.T) {
	m := NewSparse()
	m.WriteWord64(0x1000, 0x1122334455667788)
	if got := m.ReadWord64(0x1000); got != 0x1122334455667788 { // TLB now warm
		t.Fatalf("read before reset: %#x", got)
	}
	m.Reset()
	if got := m.ReadWord64(0x1000); got != 0 {
		t.Fatalf("read after reset served stale TLB data: %#x", got)
	}
	if m.Pages() != 0 {
		t.Fatalf("read after reset mapped %d pages", m.Pages())
	}
	m.WriteWord64(0x1000, 7)
	if got := m.ReadWord64(0x1000); got != 7 {
		t.Fatalf("write after reset: %#x", got)
	}
}

// Two pages whose page numbers collide in the direct-mapped TLB must not
// shadow one another.
func TestSparseTLBAliasing(t *testing.T) {
	m := NewSparse()
	a := uint64(0)
	b := a + tlbSize*pageSize // same TLB slot, different page
	m.WriteWord64(a, 1)
	m.WriteWord64(b, 2)
	for i := 0; i < 4; i++ {
		if got := m.ReadWord64(a); got != 1 {
			t.Fatalf("iter %d: page a: %#x", i, got)
		}
		if got := m.ReadWord64(b); got != 2 {
			t.Fatalf("iter %d: page b: %#x", i, got)
		}
	}
}

// The word paths are the simulator's per-access hot path: once the pages a
// loop touches are mapped, a word write and read within a few pages must
// not allocate.
func TestSparseWordZeroAllocs(t *testing.T) {
	m := NewSparse()
	for a := uint64(0); a < 4*pageSize; a += 8 {
		m.WriteWord64(a, a)
	}
	var i, x uint64
	op := func() {
		addr := i % (4 * pageSize / 8) * 8
		m.WriteWord64(addr, x)
		x ^= m.ReadWord64(addr)
		i++
	}
	if avg := testing.AllocsPerRun(10_000, op); avg != 0 {
		t.Errorf("word write+read: %v allocs/op, want 0", avg)
	}
}

// A page-strided read across a TLB-resident working set (32 pages, half
// the TLB) resolves a different page every access, all hits, and must not
// allocate.
func TestSparseTLBZeroAllocs(t *testing.T) {
	const pages = tlbSize / 2
	m := NewSparse()
	for p := uint64(0); p < pages; p++ {
		m.WriteWord64(p*pageSize, p)
	}
	var i, x uint64
	op := func() {
		x ^= m.ReadWord64(i % pages * pageSize)
		i++
	}
	if avg := testing.AllocsPerRun(10_000, op); avg != 0 {
		t.Errorf("page-strided read: %v allocs/op, want 0", avg)
	}
}

// A clone must not share TLB state with the original: writes to one image
// stay invisible to the other even for pages hot in the source's TLB.
func TestSparseCloneTLBIndependent(t *testing.T) {
	m := NewSparse()
	m.WriteWord64(0x2000, 42)
	m.ReadWord64(0x2000) // warm the TLB
	c := m.Clone()
	m.WriteWord64(0x2000, 43)
	if got := c.ReadWord64(0x2000); got != 42 {
		t.Fatalf("clone sees original's write: %d", got)
	}
	c.WriteWord64(0x2000, 44)
	if got := m.ReadWord64(0x2000); got != 43 {
		t.Fatalf("original sees clone's write: %d", got)
	}
}

func TestSparseBytesAndClone(t *testing.T) {
	m := NewSparse()
	src := []byte{1, 2, 3, 4, 5}
	m.SetBytes(100, src)
	dst := make([]byte, 5)
	m.ReadInto(100, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: %d != %d", i, dst[i], src[i])
		}
	}
	c := m.Clone()
	m.SetByte(100, 99)
	if c.ByteAt(100) != 1 {
		t.Error("clone must be independent of the original")
	}
	if c.ByteAt(104) != 5 {
		t.Error("clone missing data")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeBytes: 8 << 10, Ways: 2, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{SizeBytes: 0, Ways: 2, LineBytes: 64},
		{SizeBytes: 8 << 10, Ways: 3, LineBytes: 64},  // 42.67 sets
		{SizeBytes: 8 << 10, Ways: 2, LineBytes: 48},  // non-pow2 line
		{SizeBytes: 12 << 10, Ways: 2, LineBytes: 64}, // 96 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64})
	if c.Access(0) {
		t.Error("cold access must miss")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Error("same line must hit")
	}
	if c.Access(64) {
		t.Error("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRU(t *testing.T) {
	// 1 set, 2 ways, 64B lines.
	c := NewCache(CacheConfig{SizeBytes: 128, Ways: 2, LineBytes: 64})
	a, b, d := uint64(0), uint64(1<<10), uint64(2<<10) // all map to set 0
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a should survive")
	}
	if c.Probe(b) {
		t.Error("b should have been evicted")
	}
	if !c.Probe(d) {
		t.Error("d should be resident")
	}
}

// Property: cache behaviour matches a reference set-associative LRU model.
func TestCacheVsReference(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64}
	c := NewCache(cfg)
	sets := cfg.Sets()
	type line struct {
		tag   uint64
		stamp int
	}
	ref := make([][]line, sets)
	stamp := 0
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		addr := uint64(r.Intn(1 << 14))
		block := addr / 64
		set := int(block) % sets
		tag := block / uint64(sets)
		stamp++
		hit := false
		for j := range ref[set] {
			if ref[set][j].tag == tag {
				hit = true
				ref[set][j].stamp = stamp
				break
			}
		}
		if !hit {
			if len(ref[set]) < cfg.Ways {
				ref[set] = append(ref[set], line{tag, stamp})
			} else {
				v := 0
				for j := range ref[set] {
					if ref[set][j].stamp < ref[set][v].stamp {
						v = j
					}
				}
				ref[set][v] = line{tag, stamp}
			}
		}
		if got := c.Access(addr); got != hit {
			t.Fatalf("access %d (addr %#x): cache=%v ref=%v", i, addr, got, hit)
		}
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	cfg := h.Config()
	coldest := cfg.L1HitCycles + cfg.L1MissCycles + cfg.L2MissCycles
	if got := h.DataLatency(0x1000); got != coldest {
		t.Errorf("cold access latency %d, want %d", got, coldest)
	}
	if got := h.DataLatency(0x1000); got != cfg.L1HitCycles {
		t.Errorf("warm access latency %d, want %d", got, cfg.L1HitCycles)
	}
	// Evict from L1 but not L2: touch enough distinct lines to roll the
	// 8KB 4-way L1D while staying inside the 512KB L2.
	for i := 0; i < 1024; i++ {
		h.DataLatency(0x10000 + uint64(i)*64)
	}
	if got := h.DataLatency(0x1000); got != cfg.L1HitCycles+cfg.L1MissCycles {
		t.Errorf("L1-miss/L2-hit latency %d, want %d", got, cfg.L1HitCycles+cfg.L1MissCycles)
	}
	if got := h.FetchLatency(0x2000); got != cfg.L1MissCycles+cfg.L2MissCycles {
		t.Errorf("cold fetch latency %d", got)
	}
	if got := h.FetchLatency(0x2000); got != 0 {
		t.Errorf("warm fetch latency %d, want 0", got)
	}
}

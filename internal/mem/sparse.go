// Package mem provides the memory substrate shared by the functional and
// cycle-level simulators: a sparse byte-addressable main memory and a
// tag-only cache hierarchy timing model (L1 I, L1 D, unified L2) with the
// paper's Figure 4 geometry and miss latencies.
//
// # Address-space wrap
//
// Sparse models the full 64-bit address space. A multi-byte access whose
// byte range extends past the top of the address space wraps explicitly:
// byte i of the access lives at address addr+i mod 2^64, so a ReadUint at
// ^uint64(0) with size 2 reads the last byte of the address space followed
// by the byte at address 0. Wrapping accesses take the per-byte slow path;
// they cannot be produced by the simulated ISA (which requires natural
// alignment) but the substrate defines them so no caller can hit silent
// undefined behavior.
package mem

import "encoding/binary"

const pageShift = 12
const pageSize = 1 << pageShift
const pageMask = pageSize - 1

// PageSize is the sparse memory's page granularity; the checkpoint subsystem
// serializes memory as whole pages of this size.
const PageSize = pageSize

// PageShift is log2(PageSize): addr >> PageShift is the page number.
const PageShift = pageShift

// tlbSize is the number of direct-mapped slots in the page-pointer TLB.
// The working set of the simulated workloads is a handful of pages (data
// segment, stack, a few streamed arrays), so a small power-of-two table
// makes the steady-state page resolution a single compare instead of a map
// probe.
const tlbSize = 64

// tlbEntry memoizes one page-number → page-pointer mapping. A nil page
// marks the slot empty (unmapped pages are never cached, so a non-nil page
// with a matching page number is always current).
type tlbEntry struct {
	pn   uint64
	page *[pageSize]byte
}

// Sparse is a sparse 64-bit byte-addressable memory. Unmapped bytes read as
// zero. It is not safe for concurrent use.
//
// Page lookups go through a small direct-mapped TLB of page pointers in
// front of the page map, so steady-state accesses that stay within the
// recently-touched pages perform zero map probes. The TLB is invalidated by
// Reset (the only operation that unmaps pages).
type Sparse struct {
	pages map[uint64]*[pageSize]byte
	tlb   [tlbSize]tlbEntry
}

// NewSparse returns an empty memory.
func NewSparse() *Sparse {
	return &Sparse{pages: make(map[uint64]*[pageSize]byte)}
}

// pageFor resolves the page containing page number pn, consulting the TLB
// first. When create is set, an unmapped page is allocated; otherwise nil is
// returned for unmapped pages (and the TLB is left untouched, since only
// mapped pages are cached).
func (m *Sparse) pageFor(pn uint64, create bool) *[pageSize]byte {
	t := &m.tlb[pn&(tlbSize-1)]
	if t.page != nil && t.pn == pn {
		return t.page
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	t.pn, t.page = pn, p
	return p
}

func (m *Sparse) page(addr uint64, create bool) *[pageSize]byte {
	return m.pageFor(addr>>pageShift, create)
}

// ByteAt returns the byte at addr.
func (m *Sparse) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores one byte at addr.
func (m *Sparse) SetByte(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// ReadWord64 returns the 8 bytes at addr as a little-endian uint64. addr
// need not be aligned; an access that stays within one page (always true
// for 8-byte-aligned addresses) resolves the page once and decodes with a
// single 64-bit load.
func (m *Sparse) ReadWord64(addr uint64) uint64 {
	off := addr & pageMask
	if off <= pageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	return m.readSlow(addr, 8)
}

// WriteWord64 stores v at addr, little-endian, resolving the page once for
// the in-page (e.g. aligned) case.
func (m *Sparse) WriteWord64(addr uint64, v uint64) {
	off := addr & pageMask
	if off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], v)
		return
	}
	m.writeSlow(addr, 8, v)
}

// ReadUint returns size bytes at addr as a little-endian unsigned integer.
// size must be in [1, 8]. The access may wrap the top of the address space
// (see the package comment); in-page accesses resolve the page pointer once.
func (m *Sparse) ReadUint(addr uint64, size int) uint64 {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	return m.readSlow(addr, size)
}

// WriteUint stores the low size bytes of v at addr, little-endian. size
// must be in [1, 8]; the access may wrap the top of the address space.
func (m *Sparse) WriteUint(addr uint64, size int, v uint64) {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(addr, true)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		case 1:
			p[off] = byte(v)
		default:
			for i := 0; i < size; i++ {
				p[off+uint64(i)] = byte(v >> (8 * i))
			}
		}
		return
	}
	m.writeSlow(addr, size, v)
}

// readSlow is the per-byte reference path, used for page-crossing (and
// address-space-wrapping) accesses. Its behavior defines the semantics the
// fast paths must match; the fuzz test cross-checks them against it.
func (m *Sparse) readSlow(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

func (m *Sparse) writeSlow(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadInto fills dst with the bytes starting at addr, one page-chunked copy
// at a time.
func (m *Sparse) ReadInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := pageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// SetBytes stores src at addr, one page-chunked copy at a time.
func (m *Sparse) SetBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := pageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		copy(m.page(addr, true)[off:], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// Clone returns a deep copy of the memory. The functional golden model and
// the timing pipeline each run against their own copy of the loaded image.
//
// TLB-cold contract: the clone's page-pointer TLB starts empty — it caches
// pointers only to its OWN pages as they are touched, never to the source's.
// Every page is deep-copied, so after Clone the two memories share no
// mutable state: writes on either side (including writes served through a
// warm TLB slot) are invisible to the other. The regression test
// TestCloneAliasing pins this.
func (m *Sparse) Clone() *Sparse {
	c := NewSparse()
	c.CopyFrom(m)
	return c
}

// CopyFrom makes m a deep copy of src, reusing m's page table and any page
// objects whose page numbers src also maps. m's TLB is invalidated: surviving
// slots could otherwise name pages that CopyFrom just unmapped, and the
// TLB-cold contract (see Clone) promises no stale translations after a bulk
// rebind. src is read-only here and keeps its own TLB untouched.
func (m *Sparse) CopyFrom(src *Sparse) {
	if m == src {
		return
	}
	for pn := range m.pages {
		if _, ok := src.pages[pn]; !ok {
			delete(m.pages, pn)
		}
	}
	for pn, sp := range src.pages {
		dp := m.pages[pn]
		if dp == nil {
			dp = new([pageSize]byte)
			m.pages[pn] = dp
		}
		*dp = *sp
	}
	for i := range m.tlb {
		m.tlb[i] = tlbEntry{}
	}
}

// ForEachPage calls f for every mapped page, in unspecified order. The page
// data pointer is the live page — callers must not retain it past the call if
// they also mutate the memory. The checkpoint subsystem uses this to
// serialize memory (sorting page numbers itself for determinism).
func (m *Sparse) ForEachPage(f func(pn uint64, data *[PageSize]byte)) {
	for pn, p := range m.pages {
		f(pn, p)
	}
}

// SetPage maps page number pn and copies data into it, the restore-path
// counterpart of ForEachPage.
func (m *Sparse) SetPage(pn uint64, data *[PageSize]byte) {
	p := m.pageFor(pn, true)
	*p = *data
}

// Pages returns the number of mapped pages (for tests).
func (m *Sparse) Pages() int { return len(m.pages) }

// Reset unmaps every page, restoring the empty state while keeping the page
// table's allocation (the page objects themselves are released; reloading an
// image maps fresh zeroed pages). The page-pointer TLB is invalidated: its
// cached pointers name pages that are no longer mapped.
func (m *Sparse) Reset() {
	clear(m.pages)
	for i := range m.tlb {
		m.tlb[i] = tlbEntry{}
	}
}

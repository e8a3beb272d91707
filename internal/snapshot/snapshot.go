// Package snapshot serializes architectural state — registers, PC, sparse
// memory pages, retired-instruction count — into a versioned, deterministic
// binary format, and stores checkpoints in content-addressed stores keyed by
// (workload, args, instruction offset). A checkpoint captures only what the
// functional model defines: microarchitectural state (caches, predictors,
// the memory TLB) is deliberately excluded and starts cold on restore, so a
// restored run is bit-identical to one that fast-forwarded in process.
//
// # Format
//
// All integers are little-endian. The layout is:
//
//	magic    [4]byte  "SFCP"
//	version  uint16   currently 1
//	flags    uint8    bit 0: machine had halted
//	reserved uint8    0
//	nameLen  uint16   workload name length, then that many name bytes
//	insts    uint64   retired instructions at capture
//	pc       uint64
//	regs     [32]uint64
//	npages   uint32   pages that follow, sorted by page number
//	pages    npages × (pageNum uint64, data [mem.PageSize]byte)
//	crc      uint32   IEEE CRC-32 of every preceding byte
//
// The encoding is canonical: pages appear in ascending page-number order and
// all-zero pages are omitted (unmapped and zero-filled memory are
// indistinguishable to the simulators), so equal architectural states encode
// to equal bytes — the property the content-addressed stores dedup on.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/isa"
	"sfcmdt/internal/mem"
	"sfcmdt/internal/prog"
)

// Version is the current format version; Decode rejects any other.
const Version = 1

var magic = [4]byte{'S', 'F', 'C', 'P'}

// headerLen is the fixed-size portion before the workload name.
const headerLen = 4 + 2 + 1 + 1 + 2

// State is one captured architectural state.
type State struct {
	Workload string // image name, pinned so a checkpoint can't restore the wrong program
	Insts    uint64 // retired instructions at the capture point
	PC       uint64
	Halted   bool
	Regs     [isa.NumRegs]uint64
	Mem      *mem.Sparse // owned by the State; never aliased with a live machine
}

// Capture snapshots a machine. Memory is deep-copied, so the machine may
// keep running afterwards without disturbing the snapshot.
func Capture(m *arch.Machine) *State {
	return &State{
		Workload: m.Img.Name,
		Insts:    m.Count,
		PC:       m.PC,
		Halted:   m.Halted,
		Regs:     m.Regs,
		Mem:      m.Mem.Clone(),
	}
}

// Machine restores a runnable functional machine from the snapshot. img must
// be the image the snapshot was captured from (checked by name). The
// machine's memory is a fresh copy; its page-pointer TLB starts cold.
func (s *State) Machine(img *prog.Image) (*arch.Machine, error) {
	if img.Name != s.Workload {
		return nil, fmt.Errorf("snapshot: state for workload %q restored against image %q", s.Workload, img.Name)
	}
	return &arch.Machine{
		Regs:   s.Regs,
		PC:     s.PC,
		Mem:    s.Mem.Clone(),
		Img:    img,
		Halted: s.Halted,
		Count:  s.Insts,
	}, nil
}

// Encode serializes the state into the canonical binary form.
func (s *State) Encode() []byte {
	type page struct {
		pn   uint64
		data *[mem.PageSize]byte
	}
	var pages []page
	var zero [mem.PageSize]byte
	s.Mem.ForEachPage(func(pn uint64, data *[mem.PageSize]byte) {
		if *data == zero {
			return // canonical form: zero pages are unmapped
		}
		pages = append(pages, page{pn, data})
	})
	sort.Slice(pages, func(i, j int) bool { return pages[i].pn < pages[j].pn })

	n := headerLen + len(s.Workload) + 8 + 8 + 8*isa.NumRegs + 4 +
		len(pages)*(8+mem.PageSize) + 4
	b := make([]byte, 0, n)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	var flags uint8
	if s.Halted {
		flags |= 1
	}
	b = append(b, flags, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Workload)))
	b = append(b, s.Workload...)
	b = binary.LittleEndian.AppendUint64(b, s.Insts)
	b = binary.LittleEndian.AppendUint64(b, s.PC)
	for _, r := range s.Regs {
		b = binary.LittleEndian.AppendUint64(b, r)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pages)))
	for _, p := range pages {
		b = binary.LittleEndian.AppendUint64(b, p.pn)
		b = append(b, p.data[:]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Decode parses an encoded state, verifying magic, version, and CRC. It
// never panics on malformed input (the fuzz target pins this).
func Decode(b []byte) (*State, error) {
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("snapshot: truncated (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %x", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads only %d", v, Version)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch (stored %#x, computed %#x)", want, got)
	}
	flags := b[6]
	if flags&^1 != 0 || b[7] != 0 {
		return nil, fmt.Errorf("snapshot: unknown flags %#x", flags)
	}
	nameLen := int(binary.LittleEndian.Uint16(b[8:]))
	r := body[headerLen:]
	if len(r) < nameLen+8+8+8*isa.NumRegs+4 {
		return nil, fmt.Errorf("snapshot: truncated after header")
	}
	s := &State{
		Workload: string(r[:nameLen]),
		Halted:   flags&1 != 0,
		Mem:      mem.NewSparse(),
	}
	r = r[nameLen:]
	s.Insts = binary.LittleEndian.Uint64(r)
	s.PC = binary.LittleEndian.Uint64(r[8:])
	r = r[16:]
	for i := range s.Regs {
		s.Regs[i] = binary.LittleEndian.Uint64(r)
		r = r[8:]
	}
	npages := binary.LittleEndian.Uint32(r)
	r = r[4:]
	if uint64(len(r)) != uint64(npages)*(8+mem.PageSize) {
		return nil, fmt.Errorf("snapshot: %d pages declared, %d bytes of page data", npages, len(r))
	}
	var prev uint64
	for i := uint32(0); i < npages; i++ {
		pn := binary.LittleEndian.Uint64(r)
		if i > 0 && pn <= prev {
			return nil, fmt.Errorf("snapshot: page numbers not strictly ascending (%d after %d)", pn, prev)
		}
		prev = pn
		s.Mem.SetPage(pn, (*[mem.PageSize]byte)(r[8:8+mem.PageSize]))
		r = r[8+mem.PageSize:]
	}
	return s, nil
}

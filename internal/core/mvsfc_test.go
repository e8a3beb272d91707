package core

import (
	"math/rand"
	"testing"

	"sfcmdt/internal/seqnum"
)

func newTestMVSFC(sets, ways, versions int) *MVSFC {
	return NewMVSFC(MVSFCConfig{Sets: sets, Ways: ways, Versions: versions})
}

func mvVal(res SFCReadResult, size int) uint64 {
	return res.Word & byteRangeMask(0, uint64(size))
}

func TestMVSFCRenaming(t *testing.T) {
	s := newTestMVSFC(16, 2, 4)
	// Two stores to the same word, completing OUT of order — the case a
	// single-version SFC flags as an output violation.
	if !s.StoreWrite(20, 0x40, 8, 0x2222) { // younger completes first
		t.Fatal("store rejected")
	}
	if !s.StoreWrite(10, 0x40, 8, 0x1111) { // older completes second
		t.Fatal("store rejected")
	}
	// A load between them sees the older store's version...
	res := s.LoadRead(15, 0x40, 8)
	if res.Status != SFCFull || mvVal(res, 8) != 0x1111 {
		t.Fatalf("mid load: %v %#x", res.Status, mvVal(res, 8))
	}
	// ...a load after both sees the younger store's version...
	res = s.LoadRead(30, 0x40, 8)
	if res.Status != SFCFull || mvVal(res, 8) != 0x2222 {
		t.Fatalf("late load: %v %#x", res.Status, mvVal(res, 8))
	}
	// ...and a load older than both sees neither.
	if res := s.LoadRead(5, 0x40, 8); res.Status != SFCMiss {
		t.Fatalf("early load: %v", res.Status)
	}
}

func TestMVSFCSubwordComposition(t *testing.T) {
	s := newTestMVSFC(16, 2, 4)
	s.StoreWrite(10, 0x40, 8, 0x1111111111111111)
	s.StoreWrite(20, 0x40, 2, 0xBEEF) // younger subword overlay
	res := s.LoadRead(30, 0x40, 8)
	if res.Status != SFCFull {
		t.Fatalf("status %v", res.Status)
	}
	if got := mvVal(res, 8); got != 0x111111111111BEEF {
		t.Fatalf("composed %#x", got)
	}
	// A load between the stores sees only the older full word.
	res = s.LoadRead(15, 0x40, 8)
	if got := mvVal(res, 8); got != 0x1111111111111111 {
		t.Fatalf("mid composed %#x", got)
	}
	// Partial: only a subword version older than the load.
	s2 := newTestMVSFC(16, 2, 4)
	s2.StoreWrite(10, 0x44, 2, 0xAA55)
	res = s2.LoadRead(20, 0x40, 8)
	if res.Status != SFCPartial || res.ValidMask != 0b00110000 {
		t.Fatalf("partial: %v mask %08b", res.Status, res.ValidMask)
	}
}

func TestMVSFCVersionCapacity(t *testing.T) {
	s := newTestMVSFC(4, 1, 2)
	if !s.StoreWrite(1, 0x00, 8, 1) || !s.StoreWrite(2, 0x00, 8, 2) {
		t.Fatal("versions rejected below capacity")
	}
	if s.CanWrite(3, 0x00) || s.StoreWrite(3, 0x00, 8, 3) {
		t.Fatal("third live version must conflict")
	}
	// Retiring one version frees a slot.
	s.RetireStore(1, 0x00)
	if !s.CanWrite(3, 0x00) || !s.StoreWrite(3, 0x00, 8, 3) {
		t.Fatal("version slot not recycled after retire")
	}
}

// TestMVSFCCanWriteFindsOwnEntry pins CanWrite to StoreWrite: a word whose
// entry sits in a later way with every version live must conflict even when
// an earlier way is free, because StoreWrite writes into the word's own
// entry. The pipeline panics when CanWrite says yes and StoreWrite says no.
func TestMVSFCCanWriteFindsOwnEntry(t *testing.T) {
	s := newTestMVSFC(1, 2, 2)
	if !s.StoreWrite(1, 0x100, 8, 1) || !s.StoreWrite(2, 0x200, 8, 2) || !s.StoreWrite(3, 0x200, 8, 3) {
		t.Fatal("stores rejected below capacity")
	}
	s.RetireStore(1, 0x100) // way 0 is free; 0x200 keeps two live versions in way 1
	if can, wrote := s.CanWrite(4, 0x200), s.StoreWrite(4, 0x200, 8, 4); can != wrote || wrote {
		t.Fatalf("full entry in a later way: CanWrite %v, StoreWrite %v; want both false", can, wrote)
	}

	// Random stores, in-order retirement and squashes on a tiny cache:
	// CanWrite must always predict StoreWrite.
	r := rand.New(rand.NewSource(7))
	s = newTestMVSFC(2, 2, 2)
	type live struct {
		seq  seqnum.Seq
		addr uint64
	}
	var inflight []live
	seq := seqnum.Seq(1)
	for i := 0; i < 20000; i++ {
		switch op := r.Intn(8); {
		case op < 5:
			addr := uint64(r.Intn(8)) * 8
			can := s.CanWrite(seq, addr)
			if wrote := s.StoreWrite(seq, addr, 8, uint64(seq)); can != wrote {
				t.Fatalf("op %d: CanWrite(%d, %#x) = %v but StoreWrite = %v", i, seq, addr, can, wrote)
			} else if wrote {
				inflight = append(inflight, live{seq, addr})
			}
			seq++
		case op < 7 && len(inflight) > 0:
			s.RetireStore(inflight[0].seq, inflight[0].addr)
			inflight = inflight[1:]
		case len(inflight) > 0:
			k := r.Intn(len(inflight))
			s.SquashFrom(inflight[k].seq)
			inflight = inflight[:k]
		}
		if len(inflight) > 0 {
			s.SetBound(inflight[0].seq)
		} else {
			s.SetBound(seq)
		}
	}
}

func TestMVSFCSquashDeletesVersions(t *testing.T) {
	s := newTestMVSFC(16, 2, 4)
	s.StoreWrite(10, 0x40, 8, 0x1111)
	s.StoreWrite(20, 0x40, 8, 0x2222) // will be canceled
	s.SquashFrom(15)
	// A late load must see the surviving version, never the canceled one.
	res := s.LoadRead(30, 0x40, 8)
	if res.Status != SFCFull || mvVal(res, 8) != 0x1111 {
		t.Fatalf("after squash: %v %#x", res.Status, mvVal(res, 8))
	}
	// Squashing the remaining version frees the entry.
	s.SquashFrom(5)
	if s.Occupied != 0 {
		t.Fatalf("occupancy %d after full squash", s.Occupied)
	}
}

func TestMVSFCReclamation(t *testing.T) {
	s := newTestMVSFC(1, 1, 2)
	s.StoreWrite(5, 0x00, 8, 1)
	s.SetBound(4)
	if s.CanWrite(7, 0x40) {
		t.Fatal("live entry must not be reclaimable")
	}
	s.SetBound(6) // writer retired or squashed
	if !s.CanWrite(7, 0x40) || !s.StoreWrite(7, 0x40, 8, 2) {
		t.Fatal("fossil entry must be reclaimable")
	}
}

// Property: against a reference model keeping every (seq, bytes) version,
// the MVSFC returns, per byte, the youngest older version's value.
func TestMVSFCVsReference(t *testing.T) {
	// Oversized (8 words tracked, 120 versions each) so that the ~56
	// stores landing on each word never conflict: the property under test
	// is value selection, not capacity.
	s := newTestMVSFC(8, 8, 120)
	type write struct {
		seq  seqnum.Seq
		addr uint64
		size int
		val  uint64
	}
	var writes []write
	r := rand.New(rand.NewSource(31))
	var seq seqnum.Seq
	for i := 0; i < 900; i++ {
		seq += seqnum.Seq(1 + r.Intn(3))
		size := []int{1, 2, 4, 8}[r.Intn(4)]
		addr := uint64(r.Intn(8)*8) + uint64(r.Intn(8/size)*size)
		if r.Intn(2) == 0 {
			val := r.Uint64()
			if !s.StoreWrite(seq, addr, size, val) {
				t.Fatal("conflict in oversized MVSFC")
			}
			writes = append(writes, write{seq, addr, size, val})
		} else {
			res := s.LoadRead(seq, addr, size)
			for b := 0; b < size; b++ {
				byteAddr := addr + uint64(b)
				var want byte
				var wantValid bool
				var bestSeq seqnum.Seq
				for _, w := range writes {
					if !seqnum.Before(w.seq, seq) {
						continue
					}
					if byteAddr < w.addr || byteAddr >= w.addr+uint64(w.size) {
						continue
					}
					if !wantValid || seqnum.After(w.seq, bestSeq) {
						wantValid = true
						bestSeq = w.seq
						want = byte(w.val >> (8 * (byteAddr - w.addr)))
					}
				}
				gotValid := res.ValidMask&(1<<b) != 0
				if gotValid != wantValid {
					t.Fatalf("op %d byte %#x: validity got %v want %v", i, byteAddr, gotValid, wantValid)
				}
				if wantValid && byte(res.Word>>(8*b)) != want {
					t.Fatalf("op %d byte %#x: got %#x want %#x", i, byteAddr, byte(res.Word>>(8*b)), want)
				}
			}
		}
	}
}

func TestValueReplayCore(t *testing.T) {
	mem := map[uint64]byte{}
	q := NewValueReplay(LSQConfig{LoadEntries: 8, StoreEntries: 8})
	q.DispatchStore(1, 0xA0)
	q.DispatchLoad(2, 0xB0)
	// Load executes before the older store: stale zeros.
	if _, err := q.ExecuteLoad(2, 0x100, 8, memFromMap(mem)); err != nil {
		t.Fatal(err)
	}
	if err := q.ExecuteStore(1, 0x100, 8, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	// The store retires and commits.
	addr, size, val, err := q.RetireStore(1)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < size; b++ {
		mem[addr+uint64(b)] = byte(val >> (8 * b))
	}
	// The load's retirement replay detects the mismatch.
	v, err := q.RetireLoad(2, memFromMap(mem))
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.FlushFromSeq != 2 {
		t.Fatalf("retirement replay missed the stale load: %+v", v)
	}

	// The value-matching (silent) case must pass quietly.
	q2 := NewValueReplay(LSQConfig{LoadEntries: 8, StoreEntries: 8})
	q2.DispatchLoad(5, 0)
	q2.ExecuteLoad(5, 0x200, 8, memFromMap(mem))
	if v, _ := q2.RetireLoad(5, memFromMap(mem)); v != nil {
		t.Fatal("matching replay flagged a violation")
	}
	if q2.ReplayedLoads != 1 {
		t.Errorf("replayed %d", q2.ReplayedLoads)
	}
}

func TestValueReplayForwardingAndSquash(t *testing.T) {
	mem := map[uint64]byte{}
	q := NewValueReplay(LSQConfig{LoadEntries: 8, StoreEntries: 8})
	q.DispatchStore(1, 0)
	q.DispatchLoad(2, 0)
	q.ExecuteStore(1, 0x100, 8, 0x77)
	res, err := q.ExecuteLoad(2, 0x100, 8, memFromMap(mem))
	if err != nil || !res.Forwarded || res.Value != 0x77 {
		t.Fatalf("forward: %+v %v", res, err)
	}
	q.DispatchLoad(3, 0)
	q.DispatchStore(4, 0)
	q.SquashFrom(3)
	if q.Loads() != 1 || q.Stores() != 1 {
		t.Fatalf("squash left %d/%d", q.Loads(), q.Stores())
	}
}

package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// machineAfter runs a workload functionally for n instructions.
func machineAfter(t testing.TB, name string, n uint64) *arch.Machine {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	m := arch.New(w.Build())
	for m.Count < n && !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	return m
}

func statesEqual(a, b *snapshot.State) bool {
	if a.Workload != b.Workload || a.Insts != b.Insts || a.PC != b.PC ||
		a.Halted != b.Halted || a.Regs != b.Regs {
		return false
	}
	return bytes.Equal(a.Encode(), b.Encode())
}

func TestRoundTrip(t *testing.T) {
	m := machineAfter(t, "gzip", 5000)
	s := snapshot.Capture(m)
	enc := s.Encode()
	got, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !statesEqual(s, got) {
		t.Fatal("decoded state differs from captured state")
	}
	// Canonical: re-encoding the decoded state reproduces the same bytes.
	if !bytes.Equal(enc, got.Encode()) {
		t.Fatal("encoding is not canonical")
	}
}

// TestRestoredMachineContinuesIdentically: capture at 5k, restore, and run
// both machines 5k further — every register, the PC, and the retired count
// must agree at each step's end state.
func TestRestoredMachineContinuesIdentically(t *testing.T) {
	m := machineAfter(t, "mcf", 5000)
	s := snapshot.Capture(m)
	dec, err := snapshot.Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	r, err := dec.Machine(m.Img)
	if err != nil {
		t.Fatalf("Machine: %v", err)
	}
	for i := 0; i < 5000 && !m.Halted; i++ {
		rec1, err1 := m.Step()
		rec2, err2 := r.Step()
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: %v / %v", i, err1, err2)
		}
		if !reflect.DeepEqual(rec1, rec2) {
			t.Fatalf("step %d diverged:\n live %+v\n restored %+v", i, rec1, rec2)
		}
	}
	if m.Regs != r.Regs || m.PC != r.PC || m.Count != r.Count {
		t.Fatal("final states diverged")
	}
}

func TestMachineRejectsWrongImage(t *testing.T) {
	s := snapshot.Capture(machineAfter(t, "gzip", 100))
	other, _ := workload.Get("mcf")
	if _, err := s.Machine(other.Build()); err == nil {
		t.Fatal("restore against the wrong image succeeded")
	}
}

func TestCrossVersionReject(t *testing.T) {
	enc := snapshot.Capture(machineAfter(t, "gzip", 100)).Encode()
	// Bump the version field and fix the CRC so only the version is wrong.
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(bad[4:], snapshot.Version+1)
	refreshCRC(bad)
	if _, err := snapshot.Decode(bad); err == nil {
		t.Fatal("decoded a future-version snapshot")
	}
}

func TestCorruptionReject(t *testing.T) {
	enc := snapshot.Capture(machineAfter(t, "gzip", 100)).Encode()
	cases := map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)-9] },
		"bad magic": func(b []byte) []byte {
			b[0] = 'X'
			refreshCRC(b)
			return b
		},
		"unknown flag": func(b []byte) []byte {
			b[6] |= 0x80
			refreshCRC(b)
			return b
		},
		"empty": func(b []byte) []byte { return nil },
	}
	for name, corrupt := range cases {
		if _, err := snapshot.Decode(corrupt(append([]byte(nil), enc...))); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

// refreshCRC recomputes the trailing checksum after a deliberate mutation.
func refreshCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

package prefetch

import "testing"

func TestStrideLearnsAndIssues(t *testing.T) {
	s := NewStride()
	pc := uint64(0x1000)
	// First touch allocates; the next confirms the stride; the third
	// reaches confidence and issues.
	var got []uint64
	for i := 0; i < 5; i++ {
		got = s.Observe(pc, uint64(0x8000+64*i))
	}
	if len(got) != degree {
		t.Fatalf("trained entry issued %d candidates, want %d", len(got), degree)
	}
	base := uint64(0x8000 + 64*4)
	for k, a := range got {
		want := base + 64*uint64(distance+k)
		if a != want {
			t.Errorf("candidate %d = %#x, want %#x", k, a, want)
		}
	}
}

func TestStrideZeroStrideSilent(t *testing.T) {
	s := NewStride()
	for i := 0; i < 10; i++ {
		if got := s.Observe(0x2000, 0x9000); len(got) != 0 {
			t.Fatalf("zero-stride stream issued %d prefetches", len(got))
		}
	}
}

func TestStrideIrregularStreamStaysQuiet(t *testing.T) {
	s := NewStride()
	addrs := []uint64{0x100, 0x9000, 0x340, 0x77000, 0x12, 0x5500, 0x81, 0xfe00}
	issued := 0
	for i := 0; i < 400; i++ {
		issued += len(s.Observe(0x3000, addrs[i%len(addrs)]))
	}
	if issued > 0 {
		t.Errorf("irregular stream issued %d prefetches", issued)
	}
}

func TestStrideMultiStream(t *testing.T) {
	s := NewStride()
	// Two independent PCs with different strides must not interfere.
	for i := 0; i < 6; i++ {
		s.Observe(0x1000, uint64(0x8000+64*i))
		s.Observe(0x1004, uint64(0x10040+128*i))
	}
	a := s.Observe(0x1000, 0x8000+64*6)
	if len(a) == 0 || a[0] != 0x8000+64*6+64*uint64(distance) {
		t.Errorf("stream A candidates %#x", a)
	}
	b := s.Observe(0x1004, 0x10040+128*6)
	if len(b) == 0 || b[0] != 0x10040+128*6+128*uint64(distance) {
		t.Errorf("stream B candidates %#x", b)
	}
}

func TestStrideNegativeStride(t *testing.T) {
	s := NewStride()
	var got []uint64
	for i := 0; i < 6; i++ {
		got = s.Observe(0x4000, uint64(0x90000-64*i))
	}
	if len(got) == 0 {
		t.Fatal("descending stream never trained")
	}
	last := uint64(0x90000 - 64*5)
	if want := last - 64*uint64(distance); got[0] != want {
		t.Errorf("candidate %#x, want %#x", got[0], want)
	}
}

func TestStrideResetClearsTraining(t *testing.T) {
	s := NewStride()
	for i := 0; i < 6; i++ {
		s.Observe(0x1000, uint64(0x8000+64*i))
	}
	s.Reset()
	if got := s.Observe(0x1000, 0x8000+64*6); len(got) != 0 {
		t.Errorf("trained state survived Reset: %#x", got)
	}
}

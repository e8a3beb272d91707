package replay

import (
	"bytes"
	"sync"
	"testing"

	"sfcmdt/internal/workload"
)

// TestDiskStoreCrossProcess pins the multi-writer contract cluster nodes
// lean on when two server processes share one -replay-dir: two independent
// DiskStore handles on the same directory racing Put and Get — including
// different streams under the same key — must never surface a torn blob.
// Every Get must decode and equal one of the streams some writer put.
// blob.TestDiskTwoHandles pins the same race on raw bytes; this pins it
// through Codec, with real streams.
func TestDiskStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	mat := func(name string) *Stream {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		s, err := Materialize(w.Build(), 2_000)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Two different streams racing under the SAME key (the store is
	// content-addressed but the index pointer races): readers must see one
	// or the other, intact.
	s1, s2 := mat("gzip"), mat("mcf")
	e1, e2 := s1.Encode(), s2.Encode()
	k := Key{Workload: "gzip", Span: 2_000}
	if err := a.Put(k, s1); err != nil {
		t.Fatal(err)
	}

	stores := []Store{a, b}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := stores[g%len(stores)]
			for i := 0; i < 50; i++ {
				switch g % 4 {
				case 0:
					if err := st.Put(k, s1); err != nil {
						t.Errorf("Put s1: %v", err)
						return
					}
				case 1:
					if err := st.Put(k, s2); err != nil {
						t.Errorf("Put s2: %v", err)
						return
					}
				default:
					got, ok, err := st.Get(k)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if !ok {
						t.Error("Get missed a key that was already written")
						return
					}
					if e := got.Encode(); !bytes.Equal(e, e1) && !bytes.Equal(e, e2) {
						t.Error("Get returned a stream neither writer put")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// A fresh handle (a third "process") sees an intact final state too.
	c, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(k)
	if err != nil || !ok {
		t.Fatalf("fresh handle Get: ok=%v err=%v", ok, err)
	}
	if e := got.Encode(); !bytes.Equal(e, e1) && !bytes.Equal(e, e2) {
		t.Fatal("fresh handle read a stream neither writer put")
	}
}

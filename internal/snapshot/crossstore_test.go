package snapshot_test

import (
	"sync"
	"testing"

	"sfcmdt/internal/snapshot"
)

// TestDiskStoreCrossProcess pins the multi-writer contract cluster nodes
// lean on when two server processes share one -checkpoint-dir: two
// independent DiskStore handles on the same directory racing Put and Get —
// including different states under the same key — must never surface a
// torn or corrupt blob. Every Get must decode intact and equal one of the
// states some writer put. blob.TestDiskTwoHandles pins the same race on raw
// bytes; this pins it through Codec, with real checkpoints.
func TestDiskStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Two different states written under the SAME key: the index update
	// races, but each rename is atomic, so readers see one or the other.
	s1 := snapshot.Capture(machineAfter(t, "gzip", 1_000))
	s2 := snapshot.Capture(machineAfter(t, "gzip", 2_000))
	k := snapshot.Key{Workload: "gzip", Insts: 1_000}
	if err := a.Put(k, s1); err != nil {
		t.Fatal(err)
	}

	stores := []snapshot.Store{a, b}
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
						// Never deleted once written; a miss is a torn index.
						t.Error("Get missed a key that was already written")
						return
					}
					if !statesEqual(got, s1) && !statesEqual(got, s2) {
						t.Errorf("Get returned a state neither writer put (insts=%d pc=%#x)", got.Insts, got.PC)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Cross-handle visibility: what A wrote last is what a fresh handle
	// (a third "process") reads.
	c, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(k)
	if err != nil || !ok {
		t.Fatalf("fresh handle Get: ok=%v err=%v", ok, err)
	}
	if !statesEqual(got, s1) && !statesEqual(got, s2) {
		t.Fatal("fresh handle read a state neither writer put")
	}
}

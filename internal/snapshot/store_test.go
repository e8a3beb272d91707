package snapshot_test

import (
	"os"
	"path/filepath"
	"testing"

	"sfcmdt/internal/snapshot"
)

func testStore(t *testing.T, st snapshot.Store) {
	t.Helper()
	s := snapshot.Capture(machineAfter(t, "gzip", 2000))
	k := snapshot.Key{Workload: "gzip", Insts: 2000}

	if _, ok, err := st.Get(k); ok || err != nil {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if err := st.Put(k, s); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := st.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !statesEqual(s, got) {
		t.Fatal("stored state differs")
	}
	// A different key misses.
	if _, ok, _ := st.Get(snapshot.Key{Workload: "gzip", Insts: 4000}); ok {
		t.Fatal("Get hit on a key never Put")
	}
	// Same content under a second key: both keys resolve.
	k2 := snapshot.Key{Workload: "gzip", Args: "alt", Insts: 2000}
	if err := st.Put(k2, s); err != nil {
		t.Fatalf("Put k2: %v", err)
	}
	if _, ok, err := st.Get(k2); !ok || err != nil {
		t.Fatalf("Get k2: ok=%v err=%v", ok, err)
	}
}

// The byte-level store semantics (content addressing, verify-on-get,
// concurrency, shared directories) are pinned once, for every store, by
// internal/blob's conformance suite; these tests pin the checkpoint codec
// riding on top.

func TestMemStore(t *testing.T) {
	testStore(t, snapshot.NewMemStore())
}

func TestDiskStore(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, st)
	if objs, err := filepath.Glob(filepath.Join(dir, "objects", "*.snap")); err != nil || len(objs) != 1 {
		t.Fatalf("content addressing: objects %v (err %v) for 1 distinct state, want 1", objs, err)
	}
}

// TestDiskStorePersistsAcrossOpens: a second store over the same directory
// sees the first one's checkpoints — the property the serving front end
// relies on to reuse warmup across processes.
func TestDiskStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s := snapshot.Capture(machineAfter(t, "mcf", 1000))
	k := snapshot.Key{Workload: "mcf", Insts: 1000}
	st1, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Put(k, s); err != nil {
		t.Fatal(err)
	}
	st2, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.Get(k)
	if err != nil || !ok {
		t.Fatalf("reopened Get: ok=%v err=%v", ok, err)
	}
	if !statesEqual(s, got) {
		t.Fatal("reopened state differs")
	}
}

// TestDiskStoreRejectsTamperedBlob: a blob edited on disk fails the content
// check instead of restoring silently-corrupt state.
func TestDiskStoreRejectsTamperedBlob(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := snapshot.Capture(machineAfter(t, "gzip", 500))
	k := snapshot.Key{Workload: "gzip", Insts: 500}
	if err := st.Put(k, s); err != nil {
		t.Fatal(err)
	}
	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*.snap"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("objects: %v (err %v)", objs, err)
	}
	b, err := os.ReadFile(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x01
	if err := os.WriteFile(objs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(k); ok || err == nil {
		t.Fatalf("tampered blob restored: ok=%v err=%v", ok, err)
	}
}

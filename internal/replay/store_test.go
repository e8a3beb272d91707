package replay

import (
	"os"
	"path/filepath"
	"testing"
)

func TestMemStoreRoundTrip(t *testing.T) {
	s := testStream(t, 1_000)
	st := NewMemStore()
	k := Key{Workload: "gzip", Span: 1_000}
	if _, ok, err := st.Get(k); ok || err != nil {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	if err := st.Put(k, s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(k)
	if !ok || err != nil {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	assertStreamsEqual(t, "gzip", got, s)
	// Equal content under a second key resolves too.
	k2 := Key{Workload: "gzip", Args: "x", Span: 1_000}
	if err := st.Put(k2, s); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(k2); !ok || err != nil {
		t.Fatalf("Get second key: ok=%v err=%v", ok, err)
	}
}

func TestDiskStoreRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := testStream(t, 1_000)
	k := Key{Workload: "gzip", Span: 1_000}
	if err := st.Put(k, s); err != nil {
		t.Fatal(err)
	}
	// A second process opening the same directory sees the stream.
	st2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.Get(k)
	if !ok || err != nil {
		t.Fatalf("reopened Get: ok=%v err=%v", ok, err)
	}
	assertStreamsEqual(t, "gzip", got, s)
	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*.strm"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("store has objects %v (err %v), want 1", objs, err)
	}
	// Flip a byte in the stored blob: Get must reject, not replay garbage.
	blob := objs[0]
	b, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(blob, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(k); ok || err == nil {
		t.Fatalf("corrupted blob: ok=%v err=%v, want rejection", ok, err)
	}
}

package replay

import (
	"sync"
	"testing"

	"sfcmdt/internal/asm"
	"sfcmdt/internal/workload"
)

func TestCacheSingleflight(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	c := NewCache(nil)
	var wg sync.WaitGroup
	views := make([]*View, 8)
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Source(img, "", 5_000, nil)
			if err != nil {
				t.Error(err)
				return
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Materialized != 1 {
		t.Fatalf("materialized %d times under concurrency, want 1", st.Materialized)
	}
	if st.Hits != 7 {
		t.Fatalf("hits=%d, want 7", st.Hits)
	}
	for _, v := range views {
		if v == nil || v.Stream() != views[0].Stream() {
			t.Fatal("concurrent sources did not share one stream")
		}
	}
}

func TestCachePrefixReuse(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	c := NewCache(nil)
	long, err := c.Source(img, "", 20_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	short, err := c.Source(img, "", 5_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Materialized != 1 || st.Hits != 1 {
		t.Fatalf("materialized=%d hits=%d, want 1/1 (prefix reuse)", st.Materialized, st.Hits)
	}
	if short.Stream() != long.Stream() {
		t.Fatal("prefix view does not share the long stream")
	}
	if short.Len() != 5_000 {
		t.Fatalf("prefix view has %d records, want 5000", short.Len())
	}
	// Growing past the resident stream pays one more pass, after which the
	// longer stream serves everything.
	if _, err := c.Source(img, "", 40_000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Source(img, "", 30_000, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Materialized != 2 || st.Hits != 2 {
		t.Fatalf("after growth: materialized=%d hits=%d, want 2/2", st.Materialized, st.Hits)
	}
}

func TestCacheStoreBacked(t *testing.T) {
	w, _ := workload.Get("mcf")
	img := w.Build()
	st := &countingStore{Store: NewMemStore()}

	c1 := NewCache(st)
	if _, err := c1.Source(img, "", 5_000, nil); err != nil {
		t.Fatal(err)
	}
	if s := c1.Stats(); s.Materialized != 1 || s.StoreHits != 0 {
		t.Fatalf("cold cache: %+v", s)
	}
	if st.Puts() != 1 {
		t.Fatalf("store saw %d puts, want 1", st.Puts())
	}

	// A second cache over the same store loads instead of materializing —
	// the cross-process path.
	c2 := NewCache(st)
	v, err := c2.Source(img, "", 5_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.Materialized != 0 || s.StoreHits != 1 {
		t.Fatalf("warm store: %+v", s)
	}
	if v.Len() != 5_000 {
		t.Fatalf("loaded view has %d records", v.Len())
	}

	// The loaded stream must replay identically to a fresh one.
	fresh, err := Materialize(img, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Len(); i++ {
		if v.Stream().RecordAt(i) != fresh.RecordAt(i) {
			t.Fatalf("record %d differs after store round trip", i)
		}
	}
}

func TestCacheHaltedCoverage(t *testing.T) {
	// A program that halts before the span: the short stream must cover
	// every larger span without re-materializing.
	img, err := asm.Assemble("tinyhalt", `
        .text
start:  addi r1, r0, 100
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(nil)
	v1, err := c.Source(img, "", 1_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Source(img, "", 2_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Materialized != 1 || st.Hits != 1 {
		t.Fatalf("halted stream: materialized=%d hits=%d, want 1/1", st.Materialized, st.Hits)
	}
	if v1.Len() != v2.Len() {
		t.Fatalf("halted views disagree: %d vs %d", v1.Len(), v2.Len())
	}
}

// countingStore counts the writes a cache makes to its backing store.
type countingStore struct {
	Store
	mu   sync.Mutex
	puts int
}

func (c *countingStore) Put(k Key, s *Stream) error {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	return c.Store.Put(k, s)
}

func (c *countingStore) Puts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

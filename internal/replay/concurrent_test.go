package replay

import (
	"sync"
	"testing"

	"sfcmdt/internal/workload"
)

// TestCachePrefixViewsConcurrent pins the concurrent-consumer contract the
// parallel sampler leans on: once a stream is materialized, many goroutines
// asking for different spans share prefix views of it (no re-materialize),
// and reading through those views concurrently is race-free.
func TestCachePrefixViewsConcurrent(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	c := NewCache(nil)
	long, err := c.Source(img, "", 20_000, nil)
	if err != nil {
		t.Fatal(err)
	}

	spans := []uint64{2_000, 5_000, 10_000, 20_000}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				span := spans[(g+i)%len(spans)]
				v, err := c.Source(img, "", span, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if uint64(v.Len()) != span {
					t.Errorf("span %d view has %d records", span, v.Len())
					return
				}
				if v.Stream() != long.Stream() {
					t.Errorf("span %d view is not a prefix of the materialized stream", span)
					return
				}
				// Read through the view the way a pipeline does: the
				// backing columns are shared with every sibling view.
				for j := 0; j < v.Len(); j += 977 {
					if pc, want := v.Stream().PCAt(j), long.Stream().PCAt(j); pc != want {
						t.Errorf("PCAt(%d) = %#x via span %d, want %#x", j, pc, span, want)
						return
					}
					_ = v.Stream().RecordAt(j)
					_ = v.Stream().TakenAt(j)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Materialized != 1 {
		t.Fatalf("Materialized = %d after prefix-only spans, want 1", st.Materialized)
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits recorded for shared prefix views")
	}
}

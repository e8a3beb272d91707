package replay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sfcmdt/internal/isa"
	"sfcmdt/internal/prog"
)

// Cache hands out stream views, materializing each (workload, args) at most
// once per required span: concurrent requests for the same workload block on
// one materializing pass (per-workload singleflight — other workloads
// proceed in parallel), and a stream materialized at a larger span serves
// every smaller one as a prefix view. A backing Store, when present, is
// probed before materializing and written after, so streams survive the
// process (NewDiskStore) or are shared across caches (NewMemStore).
//
// Invalidation is structural, not temporal: streams are keyed by workload
// name, args, and span, blobs are CRC'd and content-checked on every load,
// and Bind re-verifies a loaded stream against the live image (name, code
// base, code-segment bounds) before the pipeline may consume it. A changed
// program therefore fails closed instead of replaying a stale stream.
type Cache struct {
	store Store // optional persistent backing; nil keeps streams in process

	mu      sync.Mutex
	entries map[string]*cacheEntry

	// Counters, exported via Stats: Hits are served from a resident stream
	// (including prefix reuse), StoreHits from the backing store, and
	// Materialized paid a functional pass.
	hits         atomic.Uint64
	storeHits    atomic.Uint64
	materialized atomic.Uint64
}

type cacheEntry struct {
	mu sync.Mutex // serializes materialization per (workload, args)
	s  *Stream
}

// NewCache builds a cache over an optional backing store.
func NewCache(store Store) *Cache {
	return &Cache{store: store, entries: make(map[string]*cacheEntry)}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits         uint64 // served from a resident stream (prefix reuse included)
	StoreHits    uint64 // loaded from the backing store
	Materialized uint64 // functional passes actually paid
}

// Stats returns the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		StoreHits:    c.storeHits.Load(),
		Materialized: c.materialized.Load(),
	}
}

func (c *Cache) entry(name, args string) *cacheEntry {
	k := name + "|" + args
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		e = &cacheEntry{}
		c.entries[k] = e
	}
	return e
}

// covers reports whether s can serve a span-instruction prefix: either it
// holds at least span records, or the program halted before span.
func covers(s *Stream, span uint64) bool {
	return s != nil && (uint64(s.Len()) >= span || s.Halted)
}

// Source returns a view of the workload's stream bounded to span
// instructions, materializing (or loading) the stream if no resident one
// covers the span. dec, when it matches the image, is shared into the bound
// stream instead of re-predecoding.
func (c *Cache) Source(img *prog.Image, args string, span uint64, dec []isa.DecodedInst) (*View, error) {
	e := c.entry(img.Name, args)
	e.mu.Lock()
	defer e.mu.Unlock()
	if covers(e.s, span) {
		c.hits.Add(1)
		return e.s.View(span), nil
	}
	if c.store != nil {
		s, ok, err := c.store.Get(Key{Workload: img.Name, Args: args, Span: span})
		if err != nil {
			return nil, err
		}
		if ok {
			if err := s.Bind(img, dec); err != nil {
				return nil, err
			}
			if !covers(s, span) {
				return nil, fmt.Errorf("replay: %s: stored stream has %d records for span %d and did not halt", img.Name, s.Len(), span)
			}
			c.storeHits.Add(1)
			e.s = s
			return s.View(span), nil
		}
	}
	s, err := Materialize(img, span)
	if err != nil {
		return nil, err
	}
	c.materialized.Add(1)
	if len(dec) == len(img.Code) {
		s.dec = dec // share the caller's predecode table
	}
	e.s = s
	if c.store != nil {
		if err := c.store.Put(Key{Workload: img.Name, Args: args, Span: span}, s); err != nil {
			return nil, err
		}
	}
	return s.View(span), nil
}

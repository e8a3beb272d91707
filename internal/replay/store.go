package replay

import (
	"fmt"
	"sync"

	"sfcmdt/internal/blob"
)

// Key identifies the execution a stream captures: which workload, with which
// arguments, over how many instructions from reset. Every timing
// configuration of a sweep over the same workload shares a key — and
// therefore a stream.
type Key struct {
	Workload string
	Args     string // workload argument string; empty when none
	Span     uint64 // instruction budget the stream was materialized to
}

// String renders the key canonically; stores index by this string.
func (k Key) String() string {
	return fmt.Sprintf("%s|%s|#%d", k.Workload, k.Args, k.Span)
}

// Store is a stream store. The ones this package builds are
// content-addressed blob stores (package blob) seen through Codec, exactly as
// snapshot.Store: the blob is stored once per distinct content, and a blob
// whose bytes no longer match its hash is rejected on Get rather than
// silently replayed.
type Store interface {
	// Get returns the stream stored under k (unbound — the caller must
	// Bind it to the image), or ok=false if absent.
	Get(k Key) (s *Stream, ok bool, err error)
	// Put stores s under k, replacing any previous entry.
	Put(k Key, s *Stream) error
}

// Codec is the replay-stream blob family: SFRS blobs stored on disk as
// objects/<sha256>.strm with index entries named by the hash of
// "replay|"+key, and served at /v1/store/stream. The extension and the salt
// differ from snapshot.Codec's, so one directory can hold both families.
var Codec = blob.NewCodec[Key]("stream", ".strm", "replay|", (*Stream).Encode, Decode)

// NewMemStore returns an empty in-memory stream store.
func NewMemStore() *blob.Typed[Key, *Stream] { return Codec.Over(blob.NewMem()) }

// NewDiskStore opens (creating if needed) an on-disk stream store rooted at
// dir, shareable across processes.
func NewDiskStore(dir string) (*blob.Typed[Key, *Stream], error) {
	d, err := blob.NewDisk(dir, Codec.Kind)
	if err != nil {
		return nil, err
	}
	return Codec.Over(d), nil
}

// CountingStore wraps a Store and counts probes — the test hook behind the
// sweep-hoist assertions (an N-point sweep must probe once per workload, not
// once per grid point).
type CountingStore struct {
	Inner Store
	mu    sync.Mutex
	gets  int
	puts  int
}

// Get implements Store, counting the probe.
func (c *CountingStore) Get(k Key) (*Stream, bool, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.Inner.Get(k)
}

// Put implements Store, counting the write.
func (c *CountingStore) Put(k Key, s *Stream) error {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	return c.Inner.Put(k, s)
}

// Gets returns the number of Get probes observed.
func (c *CountingStore) Gets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets
}

// Puts returns the number of Put calls observed.
func (c *CountingStore) Puts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

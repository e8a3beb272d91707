package snapshot

import (
	"fmt"

	"sfcmdt/internal/blob"
)

// Key identifies the simulation point a checkpoint captures: which workload,
// with which arguments, after how many retired instructions. Two sweep
// configs over the same workload share a key — and therefore a checkpoint.
type Key struct {
	Workload string
	Args     string // workload argument string; empty when none
	Insts    uint64 // instruction offset of the capture point
}

// String renders the key canonically; stores index by this string.
func (k Key) String() string {
	return fmt.Sprintf("%s|%s|@%d", k.Workload, k.Args, k.Insts)
}

// Store is a checkpoint store. The ones this package builds are
// content-addressed blob stores (package blob) seen through Codec: equal
// states under different keys share storage, and a blob whose content no
// longer matches its hash is rejected on Get rather than silently restored.
type Store interface {
	// Get returns the state checkpointed under k, or ok=false if absent.
	Get(k Key) (s *State, ok bool, err error)
	// Put checkpoints s under k, replacing any previous entry.
	Put(k Key, s *State) error
}

// Codec is the checkpoint blob family: SFCP blobs stored on disk as
// objects/<sha256>.snap with index entries named by the hash of the bare key,
// and served at /v1/store/snapshot.
var Codec = blob.NewCodec[Key]("snapshot", ".snap", "", (*State).Encode, Decode)

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *blob.Typed[Key, *State] { return Codec.Over(blob.NewMem()) }

// NewDiskStore opens (creating if needed) an on-disk checkpoint store rooted
// at dir, shareable across processes.
func NewDiskStore(dir string) (*blob.Typed[Key, *State], error) {
	d, err := blob.NewDisk(dir, Codec.Kind)
	if err != nil {
		return nil, err
	}
	return Codec.Over(d), nil
}

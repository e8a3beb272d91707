// Package blob is the content-addressed store behind checkpoints
// (internal/snapshot) and replay streams (internal/replay). A blob is
// immutable and named by the SHA-256 of its bytes; an index maps a canonical
// key string to that name, so equal contents under different keys are stored
// once. Every Get re-checks the bytes it read against their name, so a torn,
// corrupted or tampered blob fails closed instead of being restored or
// replayed.
//
// One Store interface has four implementations, each written once: Mem (in
// process), Disk (a directory, shareable across processes), Remote (a peer's
// /v1/store/{kind} API, served by Handler) and Tiered (a node's own store in
// front of a remote one). A Codec views any of them as a typed store; that is
// how snapshot and replay build their Key/Store APIs.
package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is a content-addressed blob store keyed by canonical key strings.
// Implementations are safe for concurrent use.
type Store interface {
	// Get returns the blob stored under key, or ok=false if absent. The
	// bytes may be the store's own copy, so the caller must not modify them.
	Get(key string) (b []byte, ok bool, err error)
	// Put stores b under key, replacing any previous entry. The store may
	// keep b, so the caller must not modify it afterwards.
	Put(key string, b []byte) error
}

// Kind is one family of blobs and its constants: the name it is served
// under, its on-disk layout, and the decoder that decides whether bytes are
// a valid blob of the family.
type Kind struct {
	Name      string             // wire name: /v1/store/{Name}
	Ext       string             // on disk: objects/<sha256><Ext>
	IndexSalt string             // on disk: index/<sha256(IndexSalt+key)>.ref
	Check     func([]byte) error // decodes b; an error rejects it
}

// maxBlobBytes bounds one blob on the wire, in both directions. A
// 200k-instruction stream is about 4 MB and checkpoints are page-sparse, so
// 64 MiB is headroom, not a limit anyone should meet.
const maxBlobBytes = 64 << 20

// contentHash is a blob's name: the hex SHA-256 of its bytes.
func contentHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func isHash(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// checkKey reports whether key can name a blob: it must be non-empty and
// free of newlines, which would break the Disk index's line format.
func checkKey(key string) error {
	if key == "" {
		return errors.New("blob: empty key")
	}
	if strings.ContainsAny(key, "\r\n") {
		return fmt.Errorf("blob: key %q contains a newline", key)
	}
	return nil
}

// Mem is an in-process Store.
type Mem struct {
	mu    sync.Mutex
	index map[string]string // key → content hash
	blobs map[string][]byte // content hash → bytes
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{index: make(map[string]string), blobs: make(map[string][]byte)}
}

// Get implements Store.
func (m *Mem) Get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	h, ok := m.index[key]
	b := m.blobs[h]
	m.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	if contentHash(b) != h {
		return nil, false, fmt.Errorf("blob: %s: blob %.12s fails content check", key, h)
	}
	return b, true, nil
}

// Put implements Store.
func (m *Mem) Put(key string, b []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	h := contentHash(b)
	m.mu.Lock()
	m.index[key] = h
	m.blobs[h] = b
	m.mu.Unlock()
	return nil
}

// Disk is a Store rooted at a directory, laid out as
//
//	<dir>/objects/<sha256><Ext>              blobs, named by content hash
//	<dir>/index/<sha256(IndexSalt+key)>.ref  two lines: key, content hash
//
// with Ext and IndexSalt from its Kind, so kinds with distinct constants can
// share one root. Writes go through a temp file and a rename, so a crashed
// Put leaves the old entry or the new one, never a torn file. Processes may
// share a directory: blobs are immutable once named and index renames are
// atomic.
type Disk struct {
	dir  string
	kind Kind
	mu   sync.Mutex // serializes this handle's Puts
}

// NewDisk opens (creating if needed) a store of kind rooted at dir.
func NewDisk(dir string, kind Kind) (*Disk, error) {
	for _, sub := range []string{"objects", "index"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("blob: open %s store: %w", kind.Name, err)
		}
	}
	return &Disk{dir: dir, kind: kind}, nil
}

func (d *Disk) indexPath(key string) string {
	return filepath.Join(d.dir, "index", contentHash([]byte(d.kind.IndexSalt+key))+".ref")
}

func (d *Disk) objectPath(hash string) string {
	return filepath.Join(d.dir, "objects", hash+d.kind.Ext)
}

// writeAtomic writes b to path via a temp file in the same directory.
func writeAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	ref, err := os.ReadFile(d.indexPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("blob: %s: %w", key, err)
	}
	k, hash, ok := strings.Cut(strings.TrimSuffix(string(ref), "\n"), "\n")
	if !ok || k != key || !isHash(hash) {
		return nil, false, fmt.Errorf("blob: %s: corrupt index entry", key)
	}
	b, err := os.ReadFile(d.objectPath(hash))
	if err != nil {
		return nil, false, fmt.Errorf("blob: %s: %w", key, err)
	}
	if contentHash(b) != hash {
		return nil, false, fmt.Errorf("blob: %s: blob %.12s fails content check", key, hash)
	}
	return b, true, nil
}

// Put implements Store.
func (d *Disk) Put(key string, b []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	hash := contentHash(b)
	d.mu.Lock()
	defer d.mu.Unlock()
	obj := d.objectPath(hash)
	_, err := os.Stat(obj)
	if errors.Is(err, fs.ErrNotExist) {
		err = writeAtomic(obj, b)
	}
	if err == nil {
		err = writeAtomic(d.indexPath(key), []byte(key+"\n"+hash+"\n"))
	}
	if err != nil {
		return fmt.Errorf("blob: %s: %w", key, err)
	}
	return nil
}

// Tiered layers a node's own store in front of a remote one. Get probes
// Local first, and a Remote hit is written back to Local so the next probe is
// free. Put must succeed locally, since Local is the tier the node serves to
// peers; the remote copy is best effort, so a network flake shares one blob
// less instead of failing the run. A failing Remote degrades to a miss: the
// caller re-materializes, which is always correct.
type Tiered struct {
	Local, Remote Store
}

// Get implements Store.
func (t *Tiered) Get(key string) ([]byte, bool, error) {
	if b, ok, err := t.Local.Get(key); err != nil || ok {
		return b, ok, err
	}
	b, ok, err := t.Remote.Get(key)
	if err != nil || !ok {
		return nil, false, nil
	}
	_ = t.Local.Put(key, b) // write-back, best effort
	return b, true, nil
}

// Put implements Store.
func (t *Tiered) Put(key string, b []byte) error {
	if err := t.Local.Put(key, b); err != nil {
		return err
	}
	_ = t.Remote.Put(key, b) // best effort
	return nil
}

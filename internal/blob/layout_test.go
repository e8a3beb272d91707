package blob_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

func sha(s []byte) string {
	h := sha256.Sum256(s)
	return hex.EncodeToString(h[:])
}

// legacyLayout is a checkpoint and a stream as the per-package stores that
// preceded package blob wrote them into one shared directory: relative path →
// file contents.
func legacyLayout(ck snapshot.Key, st *snapshot.State, rk replay.Key, rs *replay.Stream) map[string][]byte {
	sb, rb := st.Encode(), rs.Encode()
	return map[string][]byte{
		"objects/" + sha(sb) + ".snap":                         sb,
		"index/" + sha([]byte(ck.String())) + ".ref":           []byte(ck.String() + "\n" + sha(sb) + "\n"),
		"objects/" + sha(rb) + ".strm":                         rb,
		"index/" + sha([]byte("replay|"+rk.String())) + ".ref": []byte(rk.String() + "\n" + sha(rb) + "\n"),
	}
}

// TestDiskLayoutCompat pins the on-disk layout byte for byte in both
// directions: a -checkpoint-dir/-replay-dir written in the layout that
// predates package blob serves hits to both codecs, and the codecs' Puts
// write exactly that layout.
func TestDiskLayoutCompat(t *testing.T) {
	w, _ := workload.Get("gzip")
	img := w.Build()
	m := arch.New(img)
	for m.Count < 500 && !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := snapshot.Capture(m)
	rs, err := replay.Materialize(img, 300)
	if err != nil {
		t.Fatal(err)
	}
	ck := snapshot.Key{Workload: "gzip", Insts: st.Insts}
	rk := replay.Key{Workload: "gzip", Span: 300}
	want := legacyLayout(ck, st, rk, rs)

	// Old directory → new stores.
	old := t.TempDir()
	for rel, b := range want {
		path := filepath.Join(old, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := snapshot.NewDiskStore(old)
	if err != nil {
		t.Fatal(err)
	}
	gotS, ok, err := snaps.Get(ck)
	if err != nil || !ok || !bytes.Equal(gotS.Encode(), st.Encode()) {
		t.Fatalf("checkpoint from the legacy layout: ok=%v err=%v", ok, err)
	}
	streams, err := replay.NewDiskStore(old)
	if err != nil {
		t.Fatal(err)
	}
	gotR, ok, err := streams.Get(rk)
	if err != nil || !ok || !bytes.Equal(gotR.Encode(), rs.Encode()) {
		t.Fatalf("stream from the legacy layout: ok=%v err=%v", ok, err)
	}

	// New stores → the same files.
	fresh := t.TempDir()
	snaps, err = snapshot.NewDiskStore(fresh)
	if err != nil {
		t.Fatal(err)
	}
	streams, err = replay.NewDiskStore(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Put(ck, st); err != nil {
		t.Fatal(err)
	}
	if err := streams.Put(rk, rs); err != nil {
		t.Fatal(err)
	}
	var rels []string
	err = filepath.WalkDir(fresh, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(fresh, path)
		rels = append(rels, filepath.ToSlash(rel))
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, want[filepath.ToSlash(rel)]) {
			t.Errorf("%s differs from the legacy layout", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(rels)
	wantRels := make([]string, 0, len(want))
	for rel := range want {
		wantRels = append(wantRels, rel)
	}
	slices.Sort(wantRels)
	if !slices.Equal(rels, wantRels) {
		t.Fatalf("files written:\n%v\nwant:\n%v", rels, wantRels)
	}
}

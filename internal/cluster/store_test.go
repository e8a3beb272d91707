package cluster_test

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/blob"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/service"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// These tests drive the store wiring end to end through a worker's service
// handler; the store semantics themselves are pinned once, for every store,
// by internal/blob's conformance suite.

// newStoreWorker starts a worker service whose published stores are fresh
// in-memory tiers, returning its server and typed views of the tiers.
func newStoreWorker(t *testing.T) (*httptest.Server, snapshot.Store, replay.Store) {
	t.Helper()
	ckpts, streams := blob.NewMem(), blob.NewMem()
	svc := service.New(service.Config{
		Workers:            2,
		Checkpoints:        snapshot.Codec.Over(ckpts),
		Streams:            replay.Codec.Over(streams),
		PublishCheckpoints: ckpts,
		PublishStreams:     streams,
	})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { svc.BeginDrain() })
	return srv, snapshot.Codec.Over(ckpts), replay.Codec.Over(streams)
}

// remoteSnapshots and remoteStreams are typed stores over a peer's
// /v1/store API, as a worker reads the fleet through the coordinator.
func remoteSnapshots(base string) snapshot.Store {
	return snapshot.Codec.Over(&blob.Remote{Base: base, Kind: snapshot.Codec.Kind})
}

func remoteStreams(base string) replay.Store {
	return replay.Codec.Over(&blob.Remote{Base: base, Kind: replay.Codec.Kind})
}

func testStream(t *testing.T, name string, span uint64) *replay.Stream {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	s, err := replay.Materialize(w.Build(), span)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamStoreRoundtrip(t *testing.T) {
	srv, _, local := newStoreWorker(t)
	remote := remoteStreams(srv.URL)

	k := replay.Key{Workload: "gzip", Span: 2_000}
	if _, ok, err := remote.Get(k); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	want := testStream(t, "gzip", 2_000)
	if err := remote.Put(k, want); err != nil {
		t.Fatal(err)
	}
	// The PUT landed in the worker's published (local) tier.
	if _, ok, err := local.Get(k); err != nil || !ok {
		t.Fatalf("worker local tier after remote Put: ok=%v err=%v", ok, err)
	}
	got, ok, err := remote.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("stream came back different through the remote store")
	}
}

func TestSnapshotStoreRoundtrip(t *testing.T) {
	srv, local, _ := newStoreWorker(t)
	remote := remoteSnapshots(srv.URL)

	w, _ := workload.Get("gzip")
	m := arch.New(w.Build())
	for m.Count < 1_000 && !m.Halted {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot.Capture(m)
	k := snapshot.Key{Workload: "gzip", Insts: want.Insts}

	if _, ok, err := remote.Get(k); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if err := remote.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := local.Get(k); err != nil || !ok {
		t.Fatalf("worker local tier after remote Put: ok=%v err=%v", ok, err)
	}
	got, ok, err := remote.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("state came back different through the remote store")
	}
}

func TestTieredStreamsWriteBackAndDegrade(t *testing.T) {
	srv, _, peerLocal := newStoreWorker(t)

	k := replay.Key{Workload: "gzip", Span: 2_000}
	want := testStream(t, "gzip", 2_000)
	if err := peerLocal.Put(k, want); err != nil {
		t.Fatal(err)
	}

	localBlobs := blob.NewMem()
	local := replay.Codec.Over(localBlobs)
	tiered := replay.Codec.Over(&blob.Tiered{Local: localBlobs, Remote: &blob.Remote{Base: srv.URL, Kind: replay.Codec.Kind}})
	got, ok, err := tiered.Get(k)
	if err != nil || !ok {
		t.Fatalf("tiered Get via remote: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("tiered Get returned a different stream")
	}
	// The remote hit was written back: the next Get is local even with the
	// peer gone.
	if _, ok, _ := local.Get(k); !ok {
		t.Fatal("remote hit was not written back to the local tier")
	}
	srv.Close()
	if _, ok, err := tiered.Get(k); err != nil || !ok {
		t.Fatalf("tiered Get after write-back with peer down: ok=%v err=%v", ok, err)
	}
	// A fleet miss with the peer down degrades to a local miss, not an
	// error: the caller re-materializes, which is always correct.
	miss := replay.Key{Workload: "mcf", Span: 2_000}
	if _, ok, err := tiered.Get(miss); err != nil || ok {
		t.Fatalf("tiered Get with peer down: ok=%v err=%v, want clean miss", ok, err)
	}
	// Put still succeeds locally (the remote copy is best-effort).
	if err := tiered.Put(miss, testStream(t, "mcf", 2_000)); err != nil {
		t.Fatalf("tiered Put with peer down: %v", err)
	}
	if _, ok, _ := local.Get(miss); !ok {
		t.Fatal("tiered Put did not reach the local tier")
	}
}

package service

import (
	"context"
	"testing"
	"time"

	"sfcmdt/internal/replay"
)

func newReplayTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Errorf("service close: %v", err)
		}
	})
	return svc
}

// TestSweepSharesReplayStreams drives the real simulator backend through a
// sweep-shaped request set and pins the substrate's health signature: a grid
// of C configurations over W workloads pays exactly W functional passes
// (replay_materialized == W), and a later smaller budget is served from a
// materialized stream's prefix (replay_hits) instead of a new pass.
func TestSweepSharesReplayStreams(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	svc := newReplayTestService(t, Config{Workers: 2, DefaultInsts: 2_000})
	ctx := context.Background()

	reqs := []RunRequest{
		{Workload: "gzip", Mem: "mdtsfc"},
		{Workload: "gzip", Mem: "lsq"},
		{Workload: "gzip", Mem: "value-replay"},
		{Workload: "mcf", Mem: "mdtsfc"},
		{Workload: "mcf", Mem: "lsq"},
	}
	for _, rq := range reqs {
		if _, err := svc.Do(ctx, rq, true); err != nil {
			t.Fatalf("%s/%s: %v", rq.Workload, rq.Mem, err)
		}
	}
	snap := svc.Stats()
	if snap.ReplayMaterialized != 2 {
		t.Errorf("grid over 2 workloads materialized %d streams, want 2", snap.ReplayMaterialized)
	}

	// A smaller budget lands in a different per-budget runner but the same
	// service-wide cache: the 2000-inst gzip stream serves the 1000-inst
	// request as a prefix.
	if _, err := svc.Do(ctx, RunRequest{Workload: "gzip", Mem: "lsq", Insts: 1_000}, true); err != nil {
		t.Fatal(err)
	}
	snap = svc.Stats()
	if snap.ReplayMaterialized != 2 || snap.ReplayHits != 1 {
		t.Errorf("smaller budget: materialized=%d hits=%d, want 2 and 1 (prefix reuse)",
			snap.ReplayMaterialized, snap.ReplayHits)
	}
}

// TestServiceStreamsPersist pins the persistent-store path end to end: a
// second service over the same stream store loads streams instead of
// re-materializing, and its results are identical.
func TestServiceStreamsPersist(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	ctx := context.Background()
	store := replay.NewMemStore()
	rq := RunRequest{Workload: "gzip", Mem: "mdtsfc", Insts: 2_000}

	first := newReplayTestService(t, Config{Workers: 2, Streams: store})
	res1, err := first.Do(ctx, rq, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap := first.Stats(); snap.ReplayMaterialized != 1 {
		t.Fatalf("first service materialized %d, want 1", snap.ReplayMaterialized)
	}

	second := newReplayTestService(t, Config{Workers: 2, Streams: store})
	res2, err := second.Do(ctx, rq, true)
	if err != nil {
		t.Fatal(err)
	}
	snap := second.Stats()
	if snap.ReplayMaterialized != 0 || snap.ReplayStoreHits != 1 {
		t.Errorf("second service: materialized=%d store_hits=%d, want 0 and 1", snap.ReplayMaterialized, snap.ReplayStoreHits)
	}
	if *res1.Stats != *res2.Stats {
		t.Errorf("store-loaded stream diverged:\nfirst:  %+v\nsecond: %+v", res1.Stats, res2.Stats)
	}
}

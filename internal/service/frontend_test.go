package service

import (
	"testing"
)

// TestFrontendKeyBackCompat pins the cache-key contract for the frontend
// axes: golden-default requests — whether the fields are left empty or
// spelled out — keep the exact historical key format, so caches and
// coalescing maps populated by older servers stay addressable; any
// non-default frontend option suffixes the key and therefore never collides
// with a default run.
func TestFrontendKeyBackCompat(t *testing.T) {
	norm := func(rq RunRequest) RunRequest {
		if err := rq.Normalize(20_000, 200_000, 50_000_000); err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return rq
	}
	def := norm(RunRequest{Workload: "gzip"})
	if want := "gzip|baseline|mdtsfc|enf|0|0|20000"; def.Key() != want {
		t.Fatalf("default key changed: got %q want %q", def.Key(), want)
	}
	explicit := norm(RunRequest{Workload: "gzip", BPred: "gshare", Prefetch: "none"})
	if explicit.Key() != def.Key() {
		t.Fatalf("explicit golden frontend keyed differently: %q vs %q", explicit.Key(), def.Key())
	}
	seen := map[string]string{def.Key(): "default"}
	for _, tc := range []struct {
		name string
		rq   RunRequest
	}{
		{"tage", RunRequest{Workload: "gzip", BPred: "tage"}},
		{"stride", RunRequest{Workload: "gzip", Prefetch: "stride"}},
		{"preprobe", RunRequest{Workload: "gzip", Preprobe: true}},
		{"all", RunRequest{Workload: "gzip", BPred: "tage", Prefetch: "stride", Preprobe: true}},
	} {
		k := norm(tc.rq).Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s on key %q", tc.name, prev, k)
		}
		seen[k] = tc.name
	}
}

// TestFrontendBadRequests pins validation of the frontend fields.
func TestFrontendBadRequests(t *testing.T) {
	for _, rq := range []RunRequest{
		{Workload: "gzip", BPred: "perceptron"},
		{Workload: "gzip", Prefetch: "markov"},
	} {
		if err := rq.Normalize(20_000, 200_000, 50_000_000); err == nil {
			t.Errorf("%+v: want validation error, got nil", rq)
		}
	}
}

// TestFrontendSweepAxes pins that the sweep grid crosses the frontend axes
// and that expansion defaults them to the golden frontend.
func TestFrontendSweepAxes(t *testing.T) {
	sr := SweepRequest{
		Workloads:  []string{"gzip"},
		BPreds:     []string{"gshare", "tage"},
		Prefetches: []string{"none", "stride"},
		Preprobes:  []bool{false, true},
	}
	rqs := sr.Expand()
	if len(rqs) != 8 {
		t.Fatalf("want 2x2x2 = 8 grid points, got %d", len(rqs))
	}
	keys := map[string]bool{}
	for i := range rqs {
		if err := rqs[i].Normalize(20_000, 200_000, 50_000_000); err != nil {
			t.Fatalf("normalize point %d: %v", i, err)
		}
		keys[rqs[i].Key()] = true
	}
	if len(keys) != 8 {
		t.Fatalf("grid points collapsed: %d distinct keys of 8", len(keys))
	}

	// Default expansion keeps the historical single-point grid.
	plain := SweepRequest{Workloads: []string{"gzip"}}.Expand()
	if len(plain) != 1 {
		t.Fatalf("default expansion: want 1 point, got %d", len(plain))
	}
	if err := plain[0].Normalize(20_000, 200_000, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if plain[0].BPred != "gshare" || plain[0].Prefetch != "none" || plain[0].Preprobe {
		t.Fatalf("default grid point has non-golden frontend: %+v", plain[0])
	}
}

// TestFrontendRunEndToEnd runs the real simulator backend with every
// frontend option on and checks the new counters surface through the
// service result.
func TestFrontendRunEndToEnd(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	_, ts := newTestServer(t, Config{Workers: 2, Limits: Limits{DefaultInsts: 4000}})

	_, res := postRun(t, ts, RunRequest{
		Workload: "strided", BPred: "tage", Prefetch: "stride", Preprobe: true,
	})
	if res == nil {
		t.Fatal("frontend run failed")
	}
	if res.Stats == nil {
		t.Fatal("result carries no stats")
	}
	if res.Stats.BPredLookups == 0 {
		t.Errorf("TAGE ran but BPredLookups is zero")
	}
	if res.Stats.PrefetchIssued == 0 {
		t.Errorf("stride prefetcher ran on strided but issued nothing")
	}
	if res.Stats.PreprobeLookups == 0 {
		t.Errorf("pre-probe enabled but never consulted")
	}
	if want := "baseline/mdtsfc-enf+tage+pf+pp"; res.Config != want {
		t.Errorf("config name %q does not carry the frontend tags (want %q)", res.Config, want)
	}
	ts.Client().CloseIdleConnections()
}

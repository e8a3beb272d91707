package service

import (
	"net/http"
	"testing"
)

// TestSampledWeightedAdmission pins the weighted admission math: a sampled
// request occupies min(K, SampleParallel) worker slots — paying for its
// interval fan-out up front — so with those slots held even a weight-1
// request bounces with 429 when the queue depth is zero.
func TestSampledWeightedAdmission(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	svc, ts := newTestServer(t, Config{Workers: 4, QueueDepth: -1, SampleParallel: 4, Backend: backend.fn})

	samp := &SamplingSpec{FF: 1_000, Warm: 100, Measure: 400, Intervals: 8}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts, RunRequest{Workload: "gzip", Sampling: samp})
	}()
	backend.waitStarted(t, 1)

	if st := svc.Stats(); st.Admitted != 4 {
		t.Fatalf("Admitted = %d with one K=8 sampled run in flight, want min(K, SampleParallel) = 4", st.Admitted)
	}
	// All four worker slots are spoken for by the sampled run's fan-out.
	resp, _ := postRun(t, ts, RunRequest{Workload: "mcf"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("weight-1 request under a full weighted pool got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(backend.release)
	<-done
	// The fan-out is released as one unit: the pool drains back to zero
	// and a retry succeeds.
	resp, res := postRun(t, ts, RunRequest{Workload: "mcf"})
	if resp.StatusCode != http.StatusOK || res == nil {
		t.Fatalf("retry after sampled run finished got %d, want 200", resp.StatusCode)
	}
	if st := svc.Stats(); st.Admitted != 0 {
		t.Fatalf("Admitted = %d after drain, want 0", st.Admitted)
	}
}

// TestWeightClamped pins the clamp: a sampled request's weight never
// exceeds Workers (a K=50 request on a 2-worker service must not deadlock
// admission) and a plain request always weighs 1.
func TestWeightClamped(t *testing.T) {
	svc := New(Config{Workers: 2, SampleParallel: 16, Backend: func() Backend {
		b := newStubBackend()
		close(b.release)
		return b.fn
	}()})
	defer svc.baseCancel()

	plain := RunRequest{Workload: "gzip"}
	if err := plain.Normalize(svc.cfg.DefaultInsts, svc.cfg.MaxInsts, svc.cfg.MaxFFInsts); err != nil {
		t.Fatal(err)
	}
	if w := svc.weight(plain); w != 1 {
		t.Fatalf("plain request weight = %d, want 1", w)
	}
	sampled := RunRequest{Workload: "gzip", Sampling: &SamplingSpec{Measure: 100, Intervals: 50}}
	if err := sampled.Normalize(svc.cfg.DefaultInsts, svc.cfg.MaxInsts, svc.cfg.MaxFFInsts); err != nil {
		t.Fatal(err)
	}
	if w := svc.weight(sampled); w != 2 {
		t.Fatalf("K=50 sampled weight on a 2-worker service = %d, want 2 (clamped to Workers)", w)
	}
	one := RunRequest{Workload: "gzip", Sampling: &SamplingSpec{Measure: 100, Intervals: 1}}
	if err := one.Normalize(svc.cfg.DefaultInsts, svc.cfg.MaxInsts, svc.cfg.MaxFFInsts); err != nil {
		t.Fatal(err)
	}
	if w := svc.weight(one); w != 1 {
		t.Fatalf("K=1 sampled weight = %d, want 1", w)
	}
}

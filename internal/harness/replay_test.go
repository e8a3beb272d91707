package harness

import (
	"fmt"
	"sync"
	"testing"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// TestRunMatrixLockstepReplayIdentical pins the runner's shared streams and
// recycled pipelines end to end: the same workload × configuration matrix
// run through the pooled runner, whose cache materializes one stream per
// workload, and through a fresh pipeline on a freshly materialized stream
// per cell must produce identical statistics everywhere.
func TestRunMatrixLockstepReplayIdentical(t *testing.T) {
	ws := []workload.Workload{mustWorkload(t, "gzip"), mustWorkload(t, "mcf")}
	pcfgs := []pipeline.Config{
		BaselineConfig(MDTSFCEnf, 5_000),
		BaselineConfig(LSQ48x32, 5_000),
	}

	rr := NewRunner(5_000)
	replayRes, err := rr.RunMatrix(ws, pcfgs)
	if err != nil {
		t.Fatalf("replay matrix: %v", err)
	}
	for i, w := range ws {
		img := w.Build()
		for j, cfg := range pcfgs {
			s, err := replay.Materialize(img, 5_000)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pipeline.NewWithTrace(cfg, img, s.All())
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Run()
			if err != nil {
				t.Fatalf("%s under %s: fresh run: %v", w.Name, cfg.Name, err)
			}
			if *replayRes[i][j].Stats != *want {
				t.Errorf("%s under %s: pooled runner diverged from a fresh pipeline\npooled: %+v\nfresh:  %+v",
					w.Name, cfg.Name, *replayRes[i][j].Stats, *want)
			}
		}
	}
	st := rr.Replay.Stats()
	if st.Materialized != uint64(len(ws)) {
		t.Errorf("replay matrix materialized %d streams, want one per workload (%d)", st.Materialized, len(ws))
	}
}

// TestSweepMaterializesOncePerWorkload pins the sweep fix: an N-point grid
// over W workloads pays exactly W stream materializations and probes the
// stream store exactly W times — once per workload, not once per grid point.
func TestSweepMaterializesOncePerWorkload(t *testing.T) {
	ws := []workload.Workload{mustWorkload(t, "gzip"), mustWorkload(t, "mcf")}
	cfgs := []pipeline.Config{
		BaselineConfig(MDTSFCEnf, 3_000),
		BaselineConfig(LSQ48x32, 3_000),
		BaselineConfig(ValueReplay120x80, 3_000),
	}
	cs := &countingStore[replay.Key, *replay.Stream]{inner: replay.NewMemStore()}
	r := NewRunner(3_000)
	r.Replay = replay.NewCache(cs)
	if _, err := r.RunMatrix(ws, cfgs); err != nil {
		t.Fatal(err)
	}
	if got, want := cs.Gets(), len(ws); got != want {
		t.Errorf("stream store probed %d times for a %d-point grid, want %d (once per workload)",
			got, len(ws)*len(cfgs), want)
	}
	if got, want := cs.Puts(), len(ws); got != want {
		t.Errorf("stream store written %d times, want %d", got, want)
	}
	st := r.Replay.Stats()
	if st.Materialized != uint64(len(ws)) {
		t.Errorf("materialized %d functional passes, want %d", st.Materialized, len(ws))
	}
}

// countingStore counts the probes and writes a sweep makes to a stream or
// checkpoint store.
type countingStore[K fmt.Stringer, V any] struct {
	inner      *blob.Typed[K, V]
	mu         sync.Mutex
	gets, puts int
}

func (c *countingStore[K, V]) Get(k K) (V, bool, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.inner.Get(k)
}

func (c *countingStore[K, V]) Put(k K, v V) error {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	return c.inner.Put(k, v)
}

func (c *countingStore[K, V]) Gets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets
}

func (c *countingStore[K, V]) Puts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

// TestSampledSweepProbesCheckpointsOncePerWorkload pins the sampled-mode half
// of the sweep fix: a grid of C configurations over W workloads with a
// K-interval plan probes the checkpoint store K times per workload (one
// lookup per interval in the single shared preparation), independent of C.
func TestSampledSweepProbesCheckpointsOncePerWorkload(t *testing.T) {
	ws := []workload.Workload{mustWorkload(t, "gzip"), mustWorkload(t, "mcf")}
	cfgs := []pipeline.Config{
		BaselineConfig(MDTSFCEnf, 0),
		BaselineConfig(LSQ48x32, 0),
		BaselineConfig(ValueReplay120x80, 0),
	}
	plan := sample.Plan{FastForward: 2_000, Warm: 200, Measure: 300, Intervals: 3}
	cs := &countingStore[snapshot.Key, *snapshot.State]{inner: snapshot.NewMemStore()}
	r := NewRunner(0)
	r.Sampling = &plan
	r.Checkpoints = cs
	if _, err := r.RunMatrix(ws, cfgs); err != nil {
		t.Fatal(err)
	}
	if got, want := cs.Gets(), len(ws)*plan.Intervals; got != want {
		t.Errorf("checkpoint store probed %d times for a %d-point grid, want %d (intervals × workloads)",
			got, len(ws)*len(cfgs), want)
	}
}

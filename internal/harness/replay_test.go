package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prog"
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
// Its second input is a job list that interleaves three workloads with
// duplicates: the concurrent prologue also builds each workload once, and
// each job's stats equal those of a fresh runner given that job alone.
func TestSweepMaterializesOncePerWorkload(t *testing.T) {
	enf, lsq := BaselineConfig(MDTSFCEnf, 3_000), BaselineConfig(LSQ48x32, 3_000)
	for _, in := range []struct {
		names []string
		run   func(r *Runner, ws []workload.Workload)
	}{
		{[]string{"gzip", "mcf"}, func(r *Runner, ws []workload.Workload) {
			if _, err := r.RunMatrix(ws, []pipeline.Config{enf, lsq, BaselineConfig(ValueReplay120x80, 3_000)}); err != nil {
				t.Fatal(err)
			}
		}},
		{[]string{"gzip", "mcf", "ptrchase"}, func(r *Runner, ws []workload.Workload) {
			jobs := []Job{{enf, ws[0]}, {enf, ws[1]}, {lsq, ws[0]}, {enf, ws[2]}, {lsq, ws[1]}, {lsq, ws[2]}, {enf, ws[0]}}
			for i, res := range r.RunAllContext(context.Background(), jobs) {
				want := NewRunner(3_000).Run(jobs[i].Cfg, mustWorkload(t, res.Workload))
				if res.Err != nil || want.Err != nil {
					t.Fatalf("job %d: err %v, fresh runner's err %v", i, res.Err, want.Err)
				}
				if *res.Stats != *want.Stats {
					t.Errorf("job %d (%s under %s): stats differ from a fresh runner's", i, res.Workload, res.Config)
				}
			}
		}},
	} {
		builds := make([]atomic.Int32, len(in.names))
		var ws []workload.Workload
		for i, base := range figureWorkloads(t, in.names...) {
			w := base
			w.Build = func() *prog.Image {
				builds[i].Add(1)
				return base.Build()
			}
			ws = append(ws, w)
		}
		cs := &countingStore[replay.Key, *replay.Stream]{inner: replay.NewMemStore()}
		r := NewRunner(3_000)
		r.Replay = replay.NewCache(cs)
		in.run(r, ws)
		for i := range builds {
			if n := builds[i].Load(); n != 1 {
				t.Errorf("%v: %s built %d times, want 1", in.names, ws[i].Name, n)
			}
		}
		if got, want := cs.Gets(), len(ws); got != want {
			t.Errorf("%v: stream store probed %d times, want %d (once per workload)", in.names, got, want)
		}
		if got, want := cs.Puts(), len(ws); got != want {
			t.Errorf("%v: stream store written %d times, want %d", in.names, got, want)
		}
		st := r.Replay.Stats()
		if st.Materialized != uint64(len(ws)) {
			t.Errorf("%v: materialized %d functional passes, want %d", in.names, st.Materialized, len(ws))
		}
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

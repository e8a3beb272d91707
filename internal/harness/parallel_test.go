package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"sfcmdt/internal/par"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/workload"
)

// TestRunAllContextFailsFastWhenCanceled pins the submission-loop fix: with
// every CPU slot held elsewhere, a canceled context must make RunAllContext
// return immediately with per-job context errors instead of blocking on a
// slot that will never be used for anything.
func TestRunAllContextFailsFastWhenCanceled(t *testing.T) {
	sem := par.CPU()
	n := sem.Cap()
	if err := sem.Acquire(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	defer sem.Release(n)

	ws := figureWorkloads(t, "gzip", "mcf")
	cfg := BaselineConfig(MDTSFCEnf, 2_000)
	jobs := []Job{{Cfg: cfg, W: ws[0]}, {Cfg: cfg, W: ws[1]}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan []Result, 1)
	go func() { done <- NewRunner(2_000).RunAllContext(ctx, jobs) }()
	select {
	case results := <-done:
		for i, res := range results {
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("job %d: Err = %v, want context.Canceled", i, res.Err)
			}
			if res.Workload != jobs[i].W.Name || res.Config != cfg.Name {
				t.Errorf("job %d: identity %q/%q not filled in", i, res.Workload, res.Config)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAllContext blocked on a semaphore slot after cancellation")
	}
}

func figureWorkloads(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	ws := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workload.Get(n)
		if !ok {
			t.Fatalf("no workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestRunnerSampledParallelMatchesSerial pins the harness-level Parallel
// knob: a sampled run with interval parallelism enabled reports the same
// merged stats and sampling breakdown as the serial oracle.
func TestRunnerSampledParallelMatchesSerial(t *testing.T) {
	plan := sample.Plan{FastForward: 2_000, Warm: 200, Measure: 600, Intervals: 5}
	cfg := BaselineConfig(MDTSFCEnf, 0)
	w := figureWorkloads(t, "gzip")[0]

	serial := NewRunner(0)
	serial.Sampling = &plan
	serial.Parallel = 1
	want := serial.Run(cfg, w)
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	parallel := NewRunner(0)
	parallel.Sampling = &plan
	parallel.Parallel = 4
	got := parallel.Run(cfg, w)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if *want.Stats != *got.Stats {
		t.Errorf("merged stats differ:\n serial  %+v\n parallel %+v", want.Stats, got.Stats)
	}
	if want.Sample.IPC != got.Sample.IPC || want.Sample.CV != got.Sample.CV {
		t.Errorf("IPC/CV differ: %v/%v vs %v/%v", want.Sample.IPC, want.Sample.CV, got.Sample.IPC, got.Sample.CV)
	}
	if len(want.Sample.IntervalIPC) != len(got.Sample.IntervalIPC) {
		t.Fatalf("interval counts differ: %d vs %d", len(want.Sample.IntervalIPC), len(got.Sample.IntervalIPC))
	}
	for i := range want.Sample.IntervalIPC {
		if want.Sample.IntervalIPC[i] != got.Sample.IntervalIPC[i] {
			t.Errorf("interval %d IPC %v vs %v", i, want.Sample.IntervalIPC[i], got.Sample.IntervalIPC[i])
		}
	}
}

// TestRunAllPrologueErrorPerJob pins error delivery out of the concurrent
// prologue: a workload whose stream cannot be materialized (its program
// faults on a misaligned load) fails every one of its jobs, and the other
// workloads' jobs succeed.
func TestRunAllPrologueErrorPerJob(t *testing.T) {
	bad := workload.Workload{
		Name: "misaligned",
		Build: func() *prog.Image {
			b := prog.NewBuilder("misaligned")
			b.Li(1, 1)
			b.Ld(2, 0, 1)
			b.Halt()
			return b.MustBuild()
		},
	}
	good := figureWorkloads(t, "gzip", "mcf")
	cfg := BaselineConfig(MDTSFCEnf, 2_000)
	jobs := []Job{{cfg, bad}, {cfg, good[0]}, {cfg, bad}, {cfg, good[1]}}
	results := NewRunner(2_000).RunAllContext(context.Background(), jobs)
	for i, res := range results {
		if failed := res.Err != nil; failed != (jobs[i].W.Name == bad.Name) {
			t.Errorf("job %d (%s): Err = %v", i, res.Workload, res.Err)
		}
	}
}

package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sfcmdt/internal/metrics"
	"sfcmdt/internal/par"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// Result is one (workload, configuration) run.
type Result struct {
	Workload string
	Class    workload.Class
	Config   string
	Stats    *metrics.Stats
	// Sample is set on sampled runs: the per-interval breakdown behind
	// Stats (which then holds the measured intervals' merged counters).
	Sample *sample.Result
	Err    error
}

// material is a workload's image and reference stream, built exactly once
// under its own sync.Once (per-workload singleflight): concurrent misses
// block on the builder instead of each rebuilding the stream.
type material struct {
	once sync.Once
	img  *prog.Image
	src  *replay.View
	err  error
}

// sampMaterial is a workload's prepared sampling intervals, the sampled-mode
// counterpart of material: one functional pass (or checkpoint fetch) shared
// by every configuration measured against the workload.
type sampMaterial struct {
	once sync.Once
	img  *prog.Image
	ivs  *sample.Intervals
	err  error
}

// Runner executes pipeline runs, caching each workload's image and reference
// stream (the stream depends only on the instruction budget, not the
// configuration) and fanning runs out across CPUs. Pipelines are recycled
// through a pool via Pipeline.Reset, so a figure-sized batch of runs reuses
// a few pipelines' worth of simulator state instead of reconstructing it
// per run.
type Runner struct {
	MaxInsts uint64
	// Progress, when non-nil, receives a line per completed run. RunAll
	// fans runs out across worker goroutines, so the callback is invoked
	// from many goroutines; the runner serializes calls under an internal
	// mutex, and the callback itself never runs concurrently with another
	// invocation. The callback must still not call back into the Runner.
	Progress func(format string, args ...any)

	// Sampling, when non-nil, switches every run to systematic interval
	// sampling: the runner prepares each workload's intervals once (a
	// functional pass, skipped when Checkpoints already holds the interval
	// start states) and measures every configuration against the shared
	// intervals. MaxInsts is ignored in this mode; the plan bounds the run.
	Sampling *sample.Plan
	// Checkpoints, when non-nil, backs sampled preparation with a
	// checkpoint store, so warmed state is shared across runners and — with
	// a disk store — across processes.
	Checkpoints snapshot.Store
	// Parallel bounds the interval-level parallelism of each sampled run
	// (sample.Intervals.RunParallel): 1 serializes (the oracle path), 0 and
	// below means GOMAXPROCS. Extra interval workers beyond a run's own
	// goroutine come from the process-wide par.CPU semaphore — the same
	// pool RunAllContext draws job slots from — so sweep-level ×
	// interval-level concurrency composes to ≈NumCPU instead of
	// multiplying.
	Parallel int

	// Replay, when non-nil, is the stream cache full-detail runs draw their
	// reference streams from: one functional pass per (workload, span),
	// shared across every configuration, every budget that fits the
	// materialized span, and — when several runners point at one cache —
	// across runners. When nil, the runner lazily creates a private
	// in-process cache, so stream reuse within one runner needs no setup.
	Replay *replay.Cache

	mu    sync.Mutex
	mats  map[string]*material
	samps map[string]*sampMaterial

	progMu sync.Mutex // serializes Progress invocations

	pipes sync.Pool // stores *pipeline.Pipeline

	retired atomic.Uint64 // instructions retired across all runs
	elided  atomic.Uint64 // cycles skipped by idle-cycle elision across all runs
}

// NewRunner builds a runner with the given per-run instruction budget.
func NewRunner(maxInsts uint64) *Runner {
	return &Runner{
		MaxInsts: maxInsts,
		mats:     make(map[string]*material),
	}
}

func (r *Runner) progress(format string, args ...any) {
	if r.Progress != nil {
		r.progMu.Lock()
		r.Progress(format, args...)
		r.progMu.Unlock()
	}
}

// TotalRetired returns the number of instructions retired across every run
// this runner has executed — the numerator of the benchmark harness's
// simulated-MIPS figure.
func (r *Runner) TotalRetired() uint64 { return r.retired.Load() }

// TotalCyclesElided returns the number of simulated cycles idle-cycle
// elision skipped (in closed form, instead of stepping) across every run
// this runner has executed — the serving-side visibility into how much of
// the simulated time was quiescent.
func (r *Runner) TotalCyclesElided() uint64 { return r.elided.Load() }

// materialize returns the cached image and reference stream for a workload,
// building them at most once even under concurrent misses. The stream comes
// from the runner's cache, creating a private one on first use.
func (r *Runner) materialize(w workload.Workload) (*prog.Image, *replay.View, error) {
	r.mu.Lock()
	if r.mats == nil {
		r.mats = make(map[string]*material)
	}
	if r.Replay == nil {
		r.Replay = replay.NewCache(nil)
	}
	cache := r.Replay
	m := r.mats[w.Name]
	if m == nil {
		m = &material{}
		r.mats[w.Name] = m
	}
	r.mu.Unlock()
	m.once.Do(func() {
		img := w.Build()
		v, err := cache.Source(img, "", r.MaxInsts, nil)
		if err != nil {
			m.err = fmt.Errorf("harness: %s: %w", w.Name, err)
			return
		}
		m.img, m.src = img, v
	})
	return m.img, m.src, m.err
}

// prepare returns the cached sampling intervals for a workload, preparing
// them at most once even under concurrent misses.
func (r *Runner) prepare(w workload.Workload) (*sampMaterial, error) {
	r.mu.Lock()
	if r.samps == nil {
		r.samps = make(map[string]*sampMaterial)
	}
	m := r.samps[w.Name]
	if m == nil {
		m = &sampMaterial{}
		r.samps[w.Name] = m
	}
	r.mu.Unlock()
	m.once.Do(func() {
		m.img = w.Build()
		m.ivs, m.err = sample.Prepare(m.img, *r.Sampling, r.Checkpoints, "")
		if m.err != nil {
			m.err = fmt.Errorf("harness: %s: %w", w.Name, m.err)
		}
	})
	return m, m.err
}

// Run executes one workload under one configuration.
func (r *Runner) Run(cfg pipeline.Config, w workload.Workload) Result {
	return r.RunContext(context.Background(), cfg, w)
}

// runSampled measures one configuration against the workload's shared
// prepared intervals.
func (r *Runner) runSampled(ctx context.Context, cfg pipeline.Config, w workload.Workload) Result {
	res := Result{Workload: w.Name, Class: w.Class, Config: cfg.Name}
	m, err := r.prepare(w)
	if err != nil {
		res.Err = err
		return res
	}
	sres, err := m.ivs.RunParallel(ctx, cfg, r.Parallel, nil)
	// A canceled or failed run still reports the intervals measured before
	// the error, mirroring the full-detail path's partial stats.
	if sres != nil {
		res.Sample = sres
		res.Stats = sres.Measured
		r.retired.Add(sres.Measured.Retired)
		r.elided.Add(sres.Measured.CyclesElided)
	}
	if err != nil {
		res.Err = err
		return res
	}
	r.progress("done %-12s %-28s IPC=%.3f (sampled, CV %.3f)", w.Name, cfg.Name, sres.IPC, sres.CV)
	return res
}

// RunContext executes one workload under one configuration, abandoning the
// run if ctx is canceled. An abandoned run returns a Result whose Err wraps
// the context error and whose Stats hold the partial counters collected up
// to the abort; the pipeline still returns to the pool (Reset recycles an
// interrupted pipeline's in-flight state, so the next run that draws it is
// bit-identical to a fresh-pipeline run).
func (r *Runner) RunContext(ctx context.Context, cfg pipeline.Config, w workload.Workload) Result {
	res := Result{Workload: w.Name, Class: w.Class, Config: cfg.Name}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	if r.Sampling != nil {
		return r.runSampled(ctx, cfg, w)
	}
	img, src, err := r.materialize(w)
	if err != nil {
		res.Err = err
		return res
	}
	cfg.MaxInsts = r.MaxInsts
	p, _ := r.pipes.Get().(*pipeline.Pipeline)
	if p == nil {
		p, err = pipeline.NewWithTrace(cfg, img, src)
	} else {
		err = p.Reset(cfg, img, src)
	}
	if err != nil {
		res.Err = err
		return res
	}
	st, err := p.RunContext(ctx)
	// Copy the stats out: they live inside the pipeline, which goes back to
	// the pool and will be zeroed by the next run's Reset.
	stats := *st
	res.Stats = &stats
	res.Err = err
	r.retired.Add(stats.Retired)
	r.elided.Add(stats.CyclesElided)
	r.pipes.Put(p)
	if err == nil {
		r.progress("done %-12s %-28s IPC=%.3f", w.Name, cfg.Name, stats.IPC())
	}
	return res
}

// Job pairs a workload with a configuration.
type Job struct {
	Cfg pipeline.Config
	W   workload.Workload
}

// RunAll executes jobs across all CPUs and returns results in job order.
func (r *Runner) RunAll(jobs []Job) []Result {
	return r.RunAllContext(context.Background(), jobs)
}

// RunAllContext executes jobs across all CPUs, returning results in job
// order. Once ctx is canceled, queued jobs are skipped (their Result.Err is
// the context error) and in-flight runs are abandoned with partial stats.
func (r *Runner) RunAllContext(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	// Materialize (or, sampled, prepare) each distinct workload before any
	// job starts, in first-use order. A sweep grid repeats each workload
	// once per configuration, so this is one functional pass — and one
	// stream- or checkpoint-store probe — per workload, not per grid point.
	// Materialization fans out over every free core through par.ForEach,
	// an outermost fan-out that never blocks: the caller always works and
	// extra workers only take free slots. Preparation stays serial, since
	// sample.Prepare fans out over its own segments and an outer fan-out
	// would hold those slots for the length of its workload. Errors
	// surface per job through each workload's sync.Once.
	var ws []workload.Workload
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if !seen[j.W.Name] {
			seen[j.W.Name] = true
			ws = append(ws, j.W)
		}
	}
	if r.Sampling != nil {
		for _, w := range ws {
			if ctx.Err() != nil {
				break
			}
			r.prepare(w)
		}
	} else {
		par.ForEach(len(ws), func(k int) {
			if ctx.Err() == nil {
				r.materialize(ws[k])
			}
		})
	}
	// Job slots come from the process-wide CPU semaphore — shared with the
	// sampler's interval workers and Prepare's restore fan-out, so nested
	// parallelism sums to ≈NumCPU. Acquire fails once ctx is canceled, so
	// queued jobs fail fast with the context error instead of waiting for
	// a slot they will never use.
	sem := par.CPU()
	var wg sync.WaitGroup
	for i, j := range jobs {
		if err := sem.Acquire(ctx, 1); err != nil {
			results[i] = Result{Workload: j.W.Name, Class: j.W.Class, Config: j.Cfg.Name, Err: err}
			continue
		}
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			defer sem.Release(1)
			results[i] = r.RunContext(ctx, j.Cfg, j.W)
		}(i, j)
	}
	wg.Wait()
	return results
}

// RunMatrix runs every listed workload under every configuration builder and
// returns results indexed [workload][config].
func (r *Runner) RunMatrix(ws []workload.Workload, cfgs []pipeline.Config) ([][]Result, error) {
	jobs := make([]Job, 0, len(ws)*len(cfgs))
	for _, w := range ws {
		for _, cfg := range cfgs {
			jobs = append(jobs, Job{Cfg: cfg, W: w})
		}
	}
	flat := r.RunAll(jobs)
	out := make([][]Result, len(ws))
	k := 0
	for i := range ws {
		out[i] = make([]Result, len(cfgs))
		for j := range cfgs {
			res := flat[k]
			k++
			if res.Err != nil {
				return nil, fmt.Errorf("harness: %s under %s: %w", res.Workload, res.Config, res.Err)
			}
			out[i][j] = res
		}
	}
	return out, nil
}

package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"sfcmdt/internal/harness"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/workload"
)

// benchWorkload is one workload of the benchmark: a set-up, then ops
// repeated for the run's duration.
type benchWorkload interface {
	// setup prepares the inputs of every op from scratch. The benchmark
	// times it several times and keeps the last result; parent is the
	// set-up's root span.
	setup(tr *tracer, parent int) error
	// op runs one op. seq numbers the op within the run (0 is the untimed
	// warm-up); a non-nil tracer selects the traced form. An error means
	// the benchmark itself could not go on; a wrong output is reported in
	// the opOut instead.
	op(seq int, tr *tracer) (opOut, error)
	close() error
}

// opOut is what one op reports.
type opOut struct {
	// samples are the op's latency samples in ms; nil makes the op's wall
	// time its one sample.
	samples []float64
	// wall, when set, replaces the op's measured wall time as the
	// denominator of its throughput (serve-mix excludes server start-up).
	wall      time.Duration
	insts     uint64 // simulated instructions delivered to the user
	attempted int
	failed    int
	problems  []string
	// digest of the op's outputs, and the digests.json key it must match
	// ("" when the op has no expected digest).
	digest, digestKey string
	cells             []cell     // the simulated runs the op produced
	work              []workUnit // host time of detailed simulation (traced ops)
	lanes             int        // benchmark goroutines that drive the op
	layer             map[string]float64
	cleanup           func() // run after the op's timing stops
}

func (o *opOut) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workUnit is host time spent simulating cycles under one configuration.
type workUnit struct {
	config string
	ns     float64
	cycles uint64
}

func newWorkload(name string, seed uint64) (benchWorkload, error) {
	switch name {
	case "fig5-grid":
		return newFig5Grid(seed), nil
	case "stall-frontend":
		return newStallFrontend(), nil
	case "sampled-ckpt":
		return newSampledCkpt(seed)
	case "serve-mix":
		return newServeMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	fig5Insts  = 200_000
	stallInsts = 1_000_000
)

// gridWorkload runs a list of (workload, configuration) jobs through
// harness.Runner.RunAll on a fresh runner per op, so every op also pays for
// building the images and materializing the reference streams, as a user's
// first sweep does.
type gridWorkload struct {
	insts uint64
	jobs  func(seq int) []harness.Job
}

// newFig5Grid is the paper's Figure 5: every figure workload under the 48x32
// LSQ and the MDT/SFC in ENF and NOT-ENF modes. Each op runs the 60 jobs in
// its own seeded order, so the run's median averages over job orders rather
// than fixing one makespan per seed.
func newFig5Grid(seed uint64) *gridWorkload {
	var base []harness.Job
	for _, w := range workload.All() {
		for _, v := range []harness.Variant{harness.LSQ48x32, harness.MDTSFCEnf, harness.MDTSFCNot} {
			base = append(base, harness.Job{Cfg: harness.BaselineConfig(v, fig5Insts), W: w})
		}
	}
	return &gridWorkload{insts: fig5Insts, jobs: func(seq int) []harness.Job {
		r := rand.New(rand.NewPCG(seed, uint64(seq)))
		jobs := make([]harness.Job, len(base))
		for i, j := range r.Perm(len(base)) {
			jobs[i] = base[j]
		}
		return jobs
	}}
}

// newStallFrontend runs the three stall workloads under the golden frontend
// and under TAGE + stride prefetch + pre-probe. Six jobs of unequal length
// on two lanes make the op's wall time depend on their order, so the order
// is fixed (frontend-on first, longest workload first) and the seed does not
// change this workload's inputs.
func newStallFrontend() *gridWorkload {
	var jobs []harness.Job
	on := harness.Frontend{BPred: "tage", Prefetch: "stride", Preprobe: true}
	for _, name := range []string{"ptrchase", "strided", "histdep"} {
		w, ok := workload.Get(name)
		if !ok {
			panic("workload " + name + " is not registered")
		}
		for _, fe := range []harness.Frontend{on, {}} {
			cfg := harness.BaselineConfig(harness.MDTSFCEnf, stallInsts)
			if err := fe.Apply(&cfg); err != nil {
				panic(err) // the options above are valid names
			}
			jobs = append(jobs, harness.Job{Cfg: cfg, W: w})
		}
	}
	return &gridWorkload{insts: stallInsts, jobs: func(int) []harness.Job { return jobs }}
}

func (g *gridWorkload) setup(*tracer, int) error { return nil }
func (g *gridWorkload) close() error             { return nil }

func (g *gridWorkload) op(seq int, tr *tracer) (opOut, error) {
	jobs := g.jobs(seq)
	out := opOut{attempted: 1, lanes: 2, digestKey: "*"}
	var errs []error
	if tr == nil {
		r := harness.NewRunner(g.insts)
		for _, res := range r.RunAll(jobs) {
			if res.Err != nil {
				errs = append(errs, res.Err)
				continue
			}
			out.cells = append(out.cells, cell{res.Workload, res.Config, *res.Stats})
		}
	} else {
		errs = tracedRunAll(tr, jobs, g.insts, &out)
	}
	if len(errs) > 0 {
		out.fail("%d of %d runs failed, first: %v", len(errs), len(jobs), errs[0])
	}
	for _, c := range out.cells {
		out.insts += c.Stats.Retired
	}
	out.digest = statsDigest(out.cells)
	return out, nil
}

// tracedRunAll does the work of RunAll on a fresh harness.Runner — a serial
// pass that builds each workload's image and materializes its reference
// stream, then one goroutine per job under a two-slot semaphore, each
// taking a pipeline from a pool or building one — through the same public
// calls, so that a span can wrap each call. It fills out's cells, work and
// layer values.
func tracedRunAll(tr *tracer, jobs []harness.Job, insts uint64, out *opOut) []error {
	root := tr.begin("op", -1, -1)
	type material struct {
		img *prog.Image
		src *replay.View
	}
	cache := replay.NewCache(nil)
	mats := make(map[string]material)
	var errs []error
	for _, j := range jobs {
		if _, ok := mats[j.W.Name]; ok {
			continue
		}
		s := tr.begin("workload.build", root.id, 0)
		img := j.W.Build()
		s.end()
		s = tr.begin("replay.materialize", root.id, 0)
		v, err := cache.Source(img, "", insts, nil)
		if err != nil {
			s.end()
			errs = append(errs, fmt.Errorf("%s: %w", j.W.Name, err))
			continue
		}
		s.endWork("", uint64(v.Len()), 0)
		mats[j.W.Name] = material{img, v}
	}

	cells := make([]*cell, len(jobs))
	work := make([]*workUnit, len(jobs))
	jobErrs := make([]error, len(jobs))
	lanes := make(chan int, 2) // the two job slots, named so spans carry a lane
	lanes <- 0
	lanes <- 1
	var pipes sync.Pool
	var wg sync.WaitGroup
	for i, j := range jobs {
		m, ok := mats[j.W.Name]
		if !ok {
			continue // its materialization failed and is already reported
		}
		lane := <-lanes
		wg.Add(1)
		go func(i, lane int, cfg pipeline.Config) {
			defer wg.Done()
			defer func() { lanes <- lane }()
			cfg.MaxInsts = insts
			s := tr.begin("pipeline.reset", root.id, lane)
			p, _ := pipes.Get().(*pipeline.Pipeline)
			var err error
			if p == nil {
				p, err = pipeline.NewWithTrace(cfg, m.img, m.src)
			} else {
				err = p.Reset(cfg, m.img, m.src)
			}
			s.end()
			if err != nil {
				jobErrs[i] = err
				return
			}
			s = tr.begin("pipeline.run", root.id, lane)
			t0 := time.Now()
			st, err := p.Run()
			ns := float64(time.Since(t0).Nanoseconds())
			s.endWork(cfg.Name, st.Retired, st.Cycles)
			cells[i] = &cell{j.W.Name, cfg.Name, *st}
			work[i] = &workUnit{cfg.Name, ns, st.Cycles}
			jobErrs[i] = err
			pipes.Put(p)
		}(i, lane, j.Cfg)
	}
	wg.Wait()
	root.end()

	for i := range jobs {
		if jobErrs[i] != nil {
			errs = append(errs, fmt.Errorf("%s under %s: %w", jobs[i].W.Name, jobs[i].Cfg.Name, jobErrs[i]))
		}
		if cells[i] != nil && jobErrs[i] == nil {
			out.cells = append(out.cells, *cells[i])
			out.work = append(out.work, *work[i])
		}
	}
	out.layer = map[string]float64{"replay.materialized": float64(cache.Stats().Materialized)}
	// The realistic frontend's cost per cycle over the golden one's: every
	// stall-frontend workload runs under both, so the ratio compares like
	// with like.
	on := nsPerCycle(out.work, func(u workUnit) bool { return strings.Contains(u.config, "+") })
	off := nsPerCycle(out.work, func(u workUnit) bool { return !strings.Contains(u.config, "+") })
	if on > 0 && off > 0 {
		out.layer["frontend.overhead_pct"] = 100 * (on/off - 1)
	}
	return errs
}

// Package sample implements functional fast-forward and SMARTS-style
// systematic interval sampling, the subsystem that makes paper-scale
// instruction budgets tractable: instead of simulating every instruction in
// detail from cycle 0, a run fast-forwards on the architectural golden
// model's interpreter (arch.Machine.Exec: no pipeline and no retirement
// record), runs a short detailed-warm prefix whose statistics are discarded,
// measures a short detailed interval, and repeats —
// aggregating measured intervals into an IPC estimate with a coefficient of
// variation over intervals.
//
// Interval preparation (one functional pass producing per-interval start
// states and replay streams) is independent of the pipeline configuration, so
// a sweep prepares once and measures each config against the shared
// intervals; with a snapshot.Store attached, the per-interval start states
// are checkpointed and later sweeps (or other processes) skip the functional
// pass entirely.
//
// Each prepared interval is an independent (StartState, ReplaySource) pair,
// so the detailed-measurement phase is embarrassingly parallel: RunParallel
// fans the K intervals across a bounded worker set drawn from the
// process-wide par.CPU semaphore and merges results in interval order,
// bit-identical to the serial Run at any worker count.
package sample

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sfcmdt/internal/arch"
	"sfcmdt/internal/metrics"
	"sfcmdt/internal/par"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/snapshot"
)

// FastForward advances the machine by up to n instructions on the functional
// model (it stops early at HALT). The machine is mutated in place.
func FastForward(m *arch.Machine, n uint64) error {
	target := m.Count + n
	for m.Count < target && !m.Halted {
		if _, _, _, err := m.Exec(); err != nil {
			return err
		}
	}
	return nil
}

// Plan is a systematic sampling plan: per interval, fast-forward FastForward
// instructions functionally, run Warm instructions in detailed mode with
// statistics discarded (to warm caches and predictors), then measure Measure
// instructions; repeat Intervals times. The special plan {Measure: N,
// Intervals: 1} measures everything and reproduces a full detailed run
// bit-identically.
type Plan struct {
	FastForward uint64 // W: instructions skipped functionally per interval
	Warm        uint64 // U: detailed instructions discarded per interval
	Measure     uint64 // M: detailed instructions measured per interval
	Intervals   int    // K: number of intervals
}

// Validate checks the plan.
func (p Plan) Validate() error {
	if p.Measure == 0 {
		return fmt.Errorf("sample: plan measures 0 instructions per interval")
	}
	if p.Intervals <= 0 {
		return fmt.Errorf("sample: plan has %d intervals", p.Intervals)
	}
	return nil
}

// PerInterval returns W+U+M, the instruction span of one interval.
func (p Plan) PerInterval() uint64 { return p.FastForward + p.Warm + p.Measure }

// Span returns the total instruction span the plan covers.
func (p Plan) Span() uint64 { return uint64(p.Intervals) * p.PerInterval() }

func (p Plan) String() string {
	return fmt.Sprintf("ff=%d warm=%d measure=%d x%d", p.FastForward, p.Warm, p.Measure, p.Intervals)
}

// Interval is one prepared measurement point: the warm architectural state
// at the start of the detailed portion and the reference stream of the Warm +
// Measure instructions that follow it — a compact columnar replay stream,
// read-only after preparation and shared across configurations. Start.Mem is
// read-only too: where preparation captured or restored a checkpoint at the
// interval's start, it is that checkpoint's memory rather than a copy.
type Interval struct {
	Offset uint64 // instructions retired before the detailed portion starts
	Start  *pipeline.StartState
	Src    pipeline.ReplaySource
}

// Intervals is a prepared plan for one workload.
type Intervals struct {
	Img  *prog.Image
	Plan Plan
	Ivs  []Interval

	// FFInsts is the functional-execution cost of preparation: instructions
	// executed outside the detailed traces (the fast-forwarded gaps).
	FFInsts uint64
	// Restored counts interval start states fetched from the snapshot store
	// instead of being reached by functional execution.
	Restored int

	// pipes recycles measurement pipelines across intervals, workers, and
	// Run calls; ResetFrom guarantees a recycled pipeline is observably
	// identical to a fresh one.
	pipes sync.Pool
}

// Prepare runs the functional pass that materializes every interval of the
// plan. If store is non-nil, each interval's start state is looked up in it
// first (keyed by workload name, args, and instruction offset) and
// checkpointed on miss, so repeated preparations skip the functional
// fast-forward. Checkpoint hits split the plan into independent segments
// that are restored and traced concurrently (the all-hit steady state of a
// sweep restores every interval in parallel); functional execution stays
// serial only across actual gaps between checkpoints. Preparation stops
// early if the program halts; at least one interval must be preparable.
//
// Each interval's detailed portion is materialized directly as a compact
// columnar replay stream (~4-5× smaller than the equivalent AoS trace).
func Prepare(img *prog.Image, plan Plan, store snapshot.Store, args string) (*Intervals, error) {
	return prepare(img, plan, store, args, false)
}

// prepare is Prepare, keeping each interval's golden AoS trace as its source
// when trace is set: the reference the sampled equivalence tests pin the
// replay streams to.
func prepare(img *prog.Image, plan Plan, store snapshot.Store, args string, trace bool) (*Intervals, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	ivs := &Intervals{Img: img, Plan: plan}

	// Phase 1: probe the store for every interval-start checkpoint,
	// concurrently — exactly one read-only Get per offset, as in the serial
	// loop. Errors are recorded per offset and surfaced in phase 2 only if
	// that offset is actually reached, preserving serial error order.
	states := make([]*snapshot.State, plan.Intervals)
	getErrs := make([]error, plan.Intervals)
	if store != nil {
		forEachIndex(plan.Intervals, func(k int) {
			start := uint64(k)*plan.PerInterval() + plan.FastForward
			s, ok, err := store.Get(snapshot.Key{Workload: img.Name, Args: args, Insts: start})
			if err != nil {
				getErrs[k] = err
			} else if ok {
				states[k] = s
			}
		})
	}

	// Phase 2: split the plan into segments, each starting either at the
	// image entry (segment 0, cold) or at a restored checkpoint. Only the
	// functional execution inside a segment is inherently serial; segments
	// run concurrently, so the all-hit case degenerates to K independent
	// restores.
	var segs [][2]int // inclusive interval-index ranges
	for k := 0; k < plan.Intervals; k++ {
		if k == 0 || states[k] != nil {
			segs = append(segs, [2]int{k, k})
		} else {
			segs[len(segs)-1][1] = k
		}
	}
	outs := make([]segResult, len(segs))
	forEachIndex(len(segs), func(i int) {
		outs[i] = prepareSegment(img, plan, store, args, trace, segs[i], states, getErrs)
	})

	// Join in plan order, reproducing the serial loop's early exit: a halt
	// or error in one segment discards every later segment's work. (A halt
	// before a checkpointed offset cannot happen with an honest store —
	// the checkpoint's existence proves execution reaches that offset —
	// but the join does not rely on that.)
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, o.err
		}
		ivs.Ivs = append(ivs.Ivs, o.ivs...)
		ivs.FFInsts += o.ff
		ivs.Restored += o.restored
		if o.halted {
			break
		}
	}
	if len(ivs.Ivs) == 0 {
		return nil, fmt.Errorf("sample: %s: program too short for plan %s", img.Name, plan)
	}
	return ivs, nil
}

// segResult is one segment's contribution to a prepared plan.
type segResult struct {
	ivs      []Interval
	ff       uint64
	restored int
	halted   bool // the program halted inside this segment
	err      error
}

func prepareSegment(img *prog.Image, plan Plan, store snapshot.Store, args string, trace bool, seg [2]int, states []*snapshot.State, getErrs []error) (out segResult) {
	var m *arch.Machine
	// held is a checkpoint of m's current state that preparation already
	// holds: its memory, read-only after capture or decode, becomes the
	// interval's start memory instead of one more copy of m.Mem.
	held := states[seg[0]]
	if held != nil {
		restored, err := held.Machine(img)
		if err != nil {
			out.err = err
			return
		}
		m = restored
		out.restored = 1
	} else {
		m = arch.New(img)
	}
	for k := seg[0]; k <= seg[1]; k++ {
		if err := getErrs[k]; err != nil {
			out.err = err
			return
		}
		start := uint64(k)*plan.PerInterval() + plan.FastForward
		if m.Count < start {
			before := m.Count
			if err := FastForward(m, start-m.Count); err != nil {
				out.err = err
				return
			}
			out.ff += m.Count - before
			held = nil
			if store != nil && !m.Halted {
				held = snapshot.Capture(m)
				if err := store.Put(snapshot.Key{Workload: img.Name, Args: args, Insts: start}, held); err != nil {
					out.err = err
					return
				}
			}
		}
		if m.Halted {
			out.halted = true
			return
		}
		st := &pipeline.StartState{Regs: m.Regs, PC: m.PC}
		if held != nil {
			st.Mem, held = held.Mem, nil // m moves past it below
		} else {
			st.Mem = m.Mem.Clone()
		}
		var src pipeline.ReplaySource
		if trace {
			tr, err := arch.RunTraceFrom(m, plan.Warm+plan.Measure)
			if err != nil {
				out.err = err
				return
			}
			src = tr
		} else {
			s, err := replay.MaterializeFrom(m, plan.Warm+plan.Measure)
			if err != nil {
				out.err = err
				return
			}
			s.Anchors = []uint64{start}
			src = s.All()
		}
		if src.Len() == 0 {
			out.halted = true
			return
		}
		out.ivs = append(out.ivs, Interval{Offset: start, Start: st, Src: src})
		if m.Halted {
			out.halted = true
			return
		}
	}
	return
}

// forEachIndex runs f(k) for every k in [0, n), fanning across the caller's
// goroutine plus any immediately-available slots of the process-wide CPU
// semaphore. The caller always works, so progress never depends on a grant.
func forEachIndex(n int, f func(k int)) {
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			f(k)
		}
	}
	sem := par.CPU()
	var wg sync.WaitGroup
	for w := 1; w < n && sem.TryAcquire(1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sem.Release(1)
			work()
		}()
	}
	work()
	wg.Wait()
}

// Result is the aggregate of one config's measured intervals.
type Result struct {
	Plan      Plan
	Intervals int // intervals measured (≤ Plan.Intervals if the program halted)

	// Measured is the merged statistics of the measured portions only —
	// detailed-warm statistics are discarded via a stats delta at the
	// warm/measure boundary.
	Measured *metrics.Stats

	// IPC is the sampled IPC estimate: total measured retires over total
	// measured cycles (interval IPCs weighted by cycle count).
	IPC float64
	// CV is the coefficient of variation (population stddev / mean) of the
	// per-interval IPCs — the sampler's own error signal: a high CV means
	// the intervals disagree and the estimate is unreliable.
	CV          float64
	IntervalIPC []float64

	// FFInsts is what this preparation fast-forwarded (Intervals.FFInsts):
	// provenance, 0 when every interval start was restored from a
	// checkpoint, so it differs between servings of the same plan.
	FFInsts   uint64
	WarmInsts uint64 // detailed instructions whose stats were discarded
}

// Run measures every prepared interval serially under one pipeline
// configuration and aggregates — the oracle path RunParallel is pinned
// against. The intervals are read-only; concurrent Runs of different
// configs over the same Intervals are safe.
//
// On error (including ctx cancellation) the Result holding the intervals
// measured so far is returned alongside it, so callers can report partial
// progress.
func (ivs *Intervals) Run(ctx context.Context, cfg pipeline.Config) (*Result, error) {
	return ivs.RunParallel(ctx, cfg, 1, nil)
}

// intervalOut is one interval's measured outcome, collected per index so
// the merge can walk intervals in plan order regardless of which worker
// measured which interval.
type intervalOut struct {
	attempted   bool
	warmRetired uint64
	ipc         float64
	measured    metrics.Stats
	err         error
}

// RunParallel is Run with the K intervals fanned across up to parallel
// workers (≤ 0 means GOMAXPROCS). Results are merged in interval order, so
// Measured, IPC, CV, and IntervalIPC are bit-identical to the serial path
// at any worker count or GOMAXPROCS.
//
// The caller's goroutine is always a worker; extra workers run only while
// they hold a unit of sem (nil means the process-wide par.CPU), acquired
// with TryAcquire so a loaded machine degrades toward serial instead of
// oversubscribing — and so nested fan-out (a sweep of sampled runs)
// composes to ≈NumCPU instead of multiplying.
//
// The first error (in interval order) wins: no further intervals are
// claimed, and the returned Result covers exactly the prefix of intervals
// before it — the set the serial path would have accumulated, since
// lower-index intervals already in flight finish normally. Cancelling ctx
// additionally stops in-flight intervals at the pipeline's polling points.
func (ivs *Intervals) RunParallel(ctx context.Context, cfg pipeline.Config, parallel int, sem *par.Sem) (*Result, error) {
	plan := ivs.Plan
	// Each detailed episode is Warm+Measure instructions; the pipeline
	// derives its cycle limit from that budget.
	cfg.MaxInsts = plan.Warm + plan.Measure
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(ivs.Ivs) {
		parallel = len(ivs.Ivs)
	}
	if sem == nil {
		sem = par.CPU()
	}

	// Workers claim interval indices in order from a shared counter and
	// write results into per-index slots. The stop flag halts claiming
	// after an error; because claims are monotonic, every index below the
	// erroring one has already been claimed and completes normally, so the
	// merged prefix is exactly the serial one.
	out := make([]intervalOut, len(ivs.Ivs))
	var next atomic.Int64
	var stop atomic.Bool
	worker := func() {
		p, _ := ivs.pipes.Get().(*pipeline.Pipeline)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ivs.Ivs) || stop.Load() {
				break
			}
			o := &out[i]
			o.attempted = true
			if err := ctx.Err(); err != nil {
				o.err = err
				stop.Store(true)
				break
			}
			if err := ivs.measure(ctx, cfg, &ivs.Ivs[i], &p, o); err != nil {
				o.err = err
				stop.Store(true)
				break
			}
		}
		if p != nil {
			ivs.pipes.Put(p)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < parallel && sem.TryAcquire(1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sem.Release(1)
			worker()
		}()
	}
	worker()
	wg.Wait()

	// Merge in interval order up to the first failure, exactly as the
	// serial loop would have; intervals past it (possibly measured by a
	// sibling before the cancel landed) are discarded.
	res := &Result{Plan: plan, Measured: &metrics.Stats{}, FFInsts: ivs.FFInsts}
	var firstErr error
	for i := range out {
		o := &out[i]
		if o.err != nil {
			firstErr = o.err
			break
		}
		if !o.attempted {
			// Unreachable: indices are claimed in order and a worker only
			// stops claiming after recording an error. Fail loudly rather
			// than silently under-reporting intervals.
			firstErr = fmt.Errorf("sample: interval %d not measured", i)
			break
		}
		res.WarmInsts += o.warmRetired
		res.IntervalIPC = append(res.IntervalIPC, o.ipc)
		res.Measured.Merge(&o.measured)
		res.Intervals++
	}
	res.IPC = res.Measured.IPC()
	res.CV = cv(res.IntervalIPC)
	return res, firstErr
}

// measure runs one interval on the worker's pipeline (created on first use,
// ResetFrom thereafter) and fills o with its outcome.
func (ivs *Intervals) measure(ctx context.Context, cfg pipeline.Config, iv *Interval, pp **pipeline.Pipeline, o *intervalOut) error {
	p := *pp
	var err error
	if p == nil {
		p, err = pipeline.NewFrom(cfg, ivs.Img, iv.Src, iv.Start)
		if err != nil {
			return err
		}
		*pp = p
	} else if err = p.ResetFrom(cfg, ivs.Img, iv.Src, iv.Start); err != nil {
		return err
	}
	var warm metrics.Stats
	if ivs.Plan.Warm > 0 {
		w, err := p.RunUntilRetired(ctx, ivs.Plan.Warm)
		if err != nil {
			return err
		}
		warm = *w // value copy: Stats is all counters
	}
	final, err := p.RunContext(ctx)
	if err != nil {
		return err
	}
	measured := final.Delta(&warm)
	o.warmRetired = warm.Retired
	o.ipc = measured.IPC()
	o.measured = *measured
	return nil
}

// cv returns the population coefficient of variation of xs.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

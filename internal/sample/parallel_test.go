package sample_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sfcmdt/internal/harness"
	"sfcmdt/internal/mem"
	"sfcmdt/internal/par"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
)

// sameResult asserts every derived field of two sampled results matches
// bit-for-bit: merged counters, per-interval IPCs, CV, accounting.
func sameResult(t *testing.T, want, got *sample.Result, label string) {
	t.Helper()
	if *want.Measured != *got.Measured {
		t.Errorf("%s: Measured differs:\n want %+v\n got  %+v", label, want.Measured, got.Measured)
	}
	if !reflect.DeepEqual(want.IntervalIPC, got.IntervalIPC) {
		t.Errorf("%s: IntervalIPC differs:\n want %v\n got  %v", label, want.IntervalIPC, got.IntervalIPC)
	}
	if want.IPC != got.IPC || want.CV != got.CV {
		t.Errorf("%s: IPC/CV differ: want %v/%v got %v/%v", label, want.IPC, want.CV, got.IPC, got.CV)
	}
	if want.Intervals != got.Intervals || want.WarmInsts != got.WarmInsts || want.FFInsts != got.FFInsts {
		t.Errorf("%s: accounting differs: intervals %d/%d warm %d/%d ff %d/%d", label,
			want.Intervals, got.Intervals, want.WarmInsts, got.WarmInsts, want.FFInsts, got.FFInsts)
	}
}

// TestParallelSerialBitIdentical pins RunParallel to the serial oracle at
// several worker counts and GOMAXPROCS settings: merged stats, per-interval
// IPCs (float bits) and CV must all match exactly.
func TestParallelSerialBitIdentical(t *testing.T) {
	plan := sample.Plan{FastForward: 2_000, Warm: 300, Measure: 700, Intervals: 6}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, 0)
	for _, name := range []string{"gzip", "mcf"} {
		ivs, err := sample.Prepare(image(t, name).Img, plan, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		serial, err := ivs.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, runtime.NumCPU() + 2} {
			prev := runtime.GOMAXPROCS(procs)
			for _, workers := range []int{2, 4, plan.Intervals, 0} {
				// A private semaphore with ample units: extra workers are
				// actually granted even when the process-wide CPU
				// semaphore is a single unit (1-core machines).
				got, err := ivs.RunParallel(context.Background(), cfg, workers, par.NewSem(16))
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, serial, got, name)
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// countdownCtx reports itself canceled after its Err method has been polled
// n times — a deterministic stand-in for mid-run cancellation. Done returns
// a non-nil (never-closed) channel so pipeline.RunContext takes its polling
// path instead of the Background fast path.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	n    int
	done chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// prefixEq reports whether got is exactly the first len(got) entries of
// want (bit-for-bit; handles nil vs empty).
func prefixEq(got, want []float64) bool {
	if len(got) > len(want) {
		return false
	}
	for i, v := range got {
		if v != want[i] {
			return false
		}
	}
	return true
}

// TestRunPartialOnCancel pins the satellite fix: a canceled run returns the
// intervals measured so far alongside the error instead of discarding them,
// and the partial prefix matches the uncanceled run bit-for-bit.
func TestRunPartialOnCancel(t *testing.T) {
	plan := sample.Plan{FastForward: 1_000, Warm: 200, Measure: 300, Intervals: 6}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, 0)
	ivs, err := sample.Prepare(image(t, "gzip").Img, plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	full, err := ivs.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The serial path polls ctx at least once per interval (the boundary
	// check); a 3-poll budget against a 6-interval plan must cancel
	// partway through.
	res, err := ivs.Run(newCountdownCtx(3), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned a nil partial result")
	}
	if res.Intervals == 0 || res.Intervals >= plan.Intervals {
		t.Fatalf("partial run measured %d intervals, want 1..%d", res.Intervals, plan.Intervals-1)
	}
	if len(res.IntervalIPC) != res.Intervals {
		t.Fatalf("IntervalIPC has %d entries for %d intervals", len(res.IntervalIPC), res.Intervals)
	}
	// The measured prefix is the same data the full run produced.
	if !prefixEq(res.IntervalIPC, full.IntervalIPC) {
		t.Fatalf("partial IPCs %v are not a prefix of %v", res.IntervalIPC, full.IntervalIPC)
	}

	// Parallel path: the prefix is consistent (every reported interval
	// matches the full run) even when siblings were mid-flight at cancel;
	// which worker draws the canceling poll is scheduling-dependent, so
	// only the prefix property is pinned.
	res, err = ivs.RunParallel(newCountdownCtx(3), cfg, 4, par.NewSem(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	if res == nil || res.Intervals >= plan.Intervals {
		t.Fatalf("parallel partial = %+v, want a strict prefix", res)
	}
	if len(res.IntervalIPC) != res.Intervals || !prefixEq(res.IntervalIPC, full.IntervalIPC) {
		t.Fatalf("parallel partial IPCs %v are not a prefix of %v", res.IntervalIPC, full.IntervalIPC)
	}

	// A context canceled before the run starts measures nothing but still
	// returns a well-formed (empty) result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = ivs.Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) || res == nil || res.Intervals != 0 {
		t.Fatalf("pre-canceled run: res %+v err %v", res, err)
	}

	// And the intervals are still reusable afterwards: a clean run over the
	// same prepared plan matches the original.
	again, err := ivs.RunParallel(context.Background(), cfg, 3, par.NewSem(8))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, again, "after cancel")
}

// TestPrepareParallelRestore pins the segmented Prepare: an all-hit
// preparation (every interval restored from the store, concurrently) yields
// intervals and measurements bit-identical to the cold serial pass, with the
// same FFInsts/Restored accounting the serial loop reported.
func TestPrepareParallelRestore(t *testing.T) {
	plan := sample.Plan{FastForward: 3_000, Warm: 200, Measure: 500, Intervals: 8}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, 0)
	img := image(t, "mcf").Img
	store := snapshot.NewMemStore()

	cold, err := sample.Prepare(img, plan, store, "")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Restored != 0 {
		t.Fatalf("cold prepare restored %d intervals", cold.Restored)
	}
	warm, err := sample.Prepare(img, plan, store, "")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Restored != plan.Intervals {
		t.Fatalf("warm prepare restored %d intervals, want %d", warm.Restored, plan.Intervals)
	}
	if warm.FFInsts != 0 {
		t.Fatalf("warm prepare fast-forwarded %d insts, want 0", warm.FFInsts)
	}
	if len(warm.Ivs) != len(cold.Ivs) {
		t.Fatalf("warm prepare has %d intervals, cold %d", len(warm.Ivs), len(cold.Ivs))
	}
	for i := range warm.Ivs {
		if warm.Ivs[i].Offset != cold.Ivs[i].Offset {
			t.Fatalf("interval %d offset %d vs %d", i, warm.Ivs[i].Offset, cold.Ivs[i].Offset)
		}
	}

	want, err := cold.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.RunParallel(context.Background(), cfg, 4, par.NewSem(8))
	if err != nil {
		t.Fatal(err)
	}
	got.FFInsts = want.FFInsts // provenance: the restore path fast-forwarded nothing
	sameResult(t, want, got, "restored")
}

// TestStartMemoryStaysReadOnly pins what lets preparation hand out
// checkpoint memory as interval start memory without copying it: a cold
// Prepare (start memory captured for the store) and a warm one (start memory
// restored from it), each measured under two configurations at once with two
// workers apiece, leave every interval's Start.Mem equal to the stored
// checkpoint page for page.
func TestStartMemoryStaysReadOnly(t *testing.T) {
	plan := sample.Plan{FastForward: 2_000, Warm: 300, Measure: 700, Intervals: 4}
	cfgs := []pipeline.Config{
		harness.BaselineConfig(harness.MDTSFCEnf, 0),
		harness.BaselineConfig(harness.LSQ48x32, 0),
	}
	img := image(t, "gzip").Img
	store := snapshot.NewMemStore()
	for _, pass := range []string{"cold", "warm"} {
		ivs, err := sample.Prepare(img, plan, store, "")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(cfg pipeline.Config) {
				defer wg.Done()
				if _, err := ivs.RunParallel(context.Background(), cfg, 2, par.NewSem(4)); err != nil {
					t.Error(err)
				}
			}(cfg)
		}
		wg.Wait()
		for _, iv := range ivs.Ivs {
			cp, ok, err := store.Get(snapshot.Key{Workload: img.Name, Insts: iv.Offset})
			if err != nil || !ok {
				t.Fatalf("%s: checkpoint at %d: ok=%v err=%v", pass, iv.Offset, ok, err)
			}
			if pn, ok := samePages(iv.Start.Mem, cp.Mem); !ok {
				t.Errorf("%s: interval at %d: start memory page %#x differs from its checkpoint after measuring", pass, iv.Offset, pn)
			}
		}
	}
}

// samePages reports whether two memories hold the same bytes, an unmapped
// page reading as zeros, and otherwise the number of a page that differs.
func samePages(a, b *mem.Sparse) (uint64, bool) {
	pages := func(s *mem.Sparse) map[uint64]*[mem.PageSize]byte {
		m := map[uint64]*[mem.PageSize]byte{}
		s.ForEachPage(func(pn uint64, data *[mem.PageSize]byte) { m[pn] = data })
		return m
	}
	pa, pb := pages(a), pages(b)
	var zero [mem.PageSize]byte
	for _, pair := range [][2]map[uint64]*[mem.PageSize]byte{{pa, pb}, {pb, pa}} {
		for pn, x := range pair[0] {
			y := pair[1][pn]
			if y == nil {
				y = &zero
			}
			if *x != *y {
				return pn, false
			}
		}
	}
	return 0, true
}

// TestRunParallelRace hammers one prepared plan with many concurrent
// RunParallel calls (the sweep shape: many configs × shared intervals) to
// give the race detector surface area over the pipeline pool and store.
func TestRunParallelRace(t *testing.T) {
	plan := sample.Plan{FastForward: 1_000, Warm: 100, Measure: 300, Intervals: 4}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, 0)
	ivs, err := sample.Prepare(image(t, "gzip").Img, plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ivs.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sem := par.NewSem(8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ivs.RunParallel(context.Background(), cfg, 3, sem)
			if err != nil {
				t.Error(err)
				return
			}
			if got.IPC != serial.IPC || got.CV != serial.CV {
				t.Errorf("concurrent RunParallel IPC/CV %v/%v, want %v/%v", got.IPC, got.CV, serial.IPC, serial.CV)
			}
		}()
	}
	wg.Wait()
}

// TestRunParallelTimeoutCtx exercises cancellation through a real deadline
// context under parallel workers: the call must return promptly with a
// well-formed partial result.
func TestRunParallelTimeoutCtx(t *testing.T) {
	plan := sample.Plan{FastForward: 500, Warm: 100, Measure: 400, Intervals: 6}
	cfg := harness.BaselineConfig(harness.MDTSFCEnf, 0)
	ivs, err := sample.Prepare(image(t, "mcf").Img, plan, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	res, err := ivs.RunParallel(ctx, cfg, 4, par.NewSem(8))
	if err == nil {
		// The deadline may fire after the (tiny) plan completes; that is
		// not a failure, just an uninteresting schedule.
		t.Skip("plan finished before the deadline fired")
	}
	if res == nil || res.Intervals > plan.Intervals || len(res.IntervalIPC) != res.Intervals {
		t.Fatalf("malformed partial result %+v", res)
	}
	if res.Intervals > 0 && math.IsNaN(res.IPC) {
		t.Fatal("partial IPC is NaN")
	}
}

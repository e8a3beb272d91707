package sample_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sfcmdt/internal/par"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
)

// faultStore is a checkpoint store that refuses the Put at one offset and
// fails every Get past it, so a preparation that reported a later interval's
// error before the refused write would show it.
type faultStore struct {
	snapshot.Store
	putFails uint64
}

func (s faultStore) Get(k snapshot.Key) (*snapshot.State, bool, error) {
	if k.Insts > s.putFails {
		return nil, false, fmt.Errorf("get %s refused", k)
	}
	return s.Store.Get(k)
}

func (s faultStore) Put(k snapshot.Key, st *snapshot.State) error {
	if k.Insts == s.putFails {
		return fmt.Errorf("put %s refused", k)
	}
	return s.Store.Put(k, st)
}

// faultingImage counts to 300 in a store loop, about 900 instructions, and
// then makes a misaligned load.
func faultingImage() *prog.Image {
	b := prog.NewBuilder("faulty")
	buf := b.Alloc(16, 8)
	b.La(1, buf)
	b.Li(3, 300)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Sd(2, 0, 1)
	b.Bne(2, 3, "loop")
	b.Addi(1, 1, 2)
	b.Ld(4, 0, 1)
	b.Halt()
	return b.MustBuild()
}

// TestPrepareWriteErrorOrder pins Prepare's error to the serial pass's
// while checkpoint writes run beside fast-forward: for each interval of a
// 4-interval plan whose write fails, the error is that write's, though
// every later interval's store probe failed too. On the faulting program,
// interval 1's write comes before the fault its materialization hits, and
// with no write failing the fault is the error.
func TestPrepareWriteErrorOrder(t *testing.T) {
	gzip := image(t, "gzip").Img
	faulty := faultingImage()
	for _, tc := range []struct {
		img  *prog.Image
		plan sample.Plan
		want map[uint64]string // refused offset → Prepare's error
	}{
		{gzip, sample.Plan{FastForward: 3_000, Warm: 200, Measure: 500, Intervals: 4}, map[uint64]string{
			3_000:  "put gzip||@3000 refused",
			6_700:  "put gzip||@6700 refused",
			10_400: "put gzip||@10400 refused",
			14_100: "put gzip||@14100 refused",
		}},
		{faulty, sample.Plan{FastForward: 200, Measure: 300, Intervals: 4}, map[uint64]string{
			200:     "put faulty||@200 refused",
			700:     "put faulty||@700 refused",
			1 << 63: "replay: faulty: after 903 insts: arch: misaligned ld at PC 0x10018: addr 0x10000002",
		}},
	} {
		for off, want := range tc.want {
			store := faultStore{snapshot.NewMemStore(), off}
			_, err := sample.Prepare(tc.img, tc.plan, store, "")
			if err == nil || err.Error() != want {
				t.Errorf("%s, Put at %d refused: Prepare error %v, want %q", tc.img.Name, off, err, want)
			}
		}
	}
}

// gateStore holds every Put until the test releases it and counts the Puts
// that have not returned.
type gateStore struct {
	snapshot.Store
	entered  chan struct{}
	release  chan struct{}
	inFlight atomic.Int32
}

func (s *gateStore) Put(k snapshot.Key, st *snapshot.State) error {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.entered <- struct{}{}
	<-s.release
	return s.Store.Put(k, st)
}

// TestPrepareWaitsForWrites: with every Put held until released, Prepare
// returns only after each has returned, and a warm Prepare from the store
// then restores every interval.
func TestPrepareWaitsForWrites(t *testing.T) {
	plan := sample.Plan{FastForward: 3_000, Warm: 200, Measure: 500, Intervals: 4}
	img := image(t, "mcf").Img
	store := &gateStore{Store: snapshot.NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}

	var atReturn int32
	var err error
	done := make(chan struct{})
	go func() {
		_, err = sample.Prepare(img, plan, store, "")
		atReturn = store.inFlight.Load()
		close(done)
	}()
	for puts := 0; ; {
		select {
		case <-store.entered:
			puts++
			// Give an early return the time to show before releasing.
			select {
			case <-done:
			case <-time.After(10 * time.Millisecond):
			}
			store.release <- struct{}{}
			continue
		case <-done:
		}
		if err != nil {
			t.Fatal(err)
		}
		if puts != plan.Intervals || atReturn != 0 {
			t.Fatalf("Prepare returned after %d Puts with %d still in flight, want %d and 0", puts, atReturn, plan.Intervals)
		}
		break
	}

	warm, err := sample.Prepare(img, plan, store.Store, "")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Restored != plan.Intervals || warm.FFInsts != 0 {
		t.Fatalf("warm Prepare restored %d of %d intervals and fast-forwarded %d insts", warm.Restored, plan.Intervals, warm.FFInsts)
	}
}

// heldStore records the process-wide CPU units held during each Put.
type heldStore struct {
	snapshot.Store
	held []int64
}

func (s *heldStore) Put(k snapshot.Key, st *snapshot.State) error {
	s.held = append(s.held, par.CPU().Held())
	return s.Store.Put(k, st)
}

// TestPrepareInlineWritesMatch prepares once with every par.CPU unit held by
// the test, so every checkpoint write runs inline, and once with the units
// free, so each runs on a writer holding one. Intervals, start states,
// streams and stored checkpoints must match.
func TestPrepareInlineWritesMatch(t *testing.T) {
	plan := sample.Plan{FastForward: 3_000, Warm: 200, Measure: 500, Intervals: 4}
	img := image(t, "swim").Img
	sem := par.CPU()

	var units int64
	for sem.TryAcquire(1) {
		units++
	}
	inline := &heldStore{Store: snapshot.NewMemStore()}
	want, err := sample.Prepare(img, plan, inline, "")
	sem.Release(units)
	if err != nil {
		t.Fatal(err)
	}
	background := &heldStore{Store: snapshot.NewMemStore()}
	got, err := sample.Prepare(img, plan, background, "")
	if err != nil {
		t.Fatal(err)
	}

	for i, h := range inline.held {
		if h != sem.Cap() {
			t.Errorf("inline Put %d ran with %d of %d units held by others", i, h, sem.Cap())
		}
	}
	for i, h := range background.held {
		if h != 1 {
			t.Errorf("background Put %d ran with %d units held, want its writer's one", i, h)
		}
	}
	if len(inline.held) != plan.Intervals || len(background.held) != plan.Intervals {
		t.Fatalf("%d inline and %d background Puts, want %d each", len(inline.held), len(background.held), plan.Intervals)
	}
	if got.FFInsts != want.FFInsts || got.Restored != want.Restored || len(got.Ivs) != len(want.Ivs) {
		t.Fatalf("background prepare: ff %d restored %d intervals %d, inline %d %d %d",
			got.FFInsts, got.Restored, len(got.Ivs), want.FFInsts, want.Restored, len(want.Ivs))
	}
	for i := range want.Ivs {
		w, g := &want.Ivs[i], &got.Ivs[i]
		if g.Offset != w.Offset || g.Start.Regs != w.Start.Regs || g.Start.PC != w.Start.PC {
			t.Fatalf("interval %d: start differs", i)
		}
		if pn, ok := samePages(g.Start.Mem, w.Start.Mem); !ok {
			t.Fatalf("interval %d: start memory page %#x differs", i, pn)
		}
		ws, gs := w.Src.Stream(), g.Src.Stream()
		if !reflect.DeepEqual(gs.Columns, ws.Columns) || !reflect.DeepEqual(gs.Anchors, ws.Anchors) || gs.Halted != ws.Halted {
			t.Fatalf("interval %d: stream differs", i)
		}
		k := snapshot.Key{Workload: img.Name, Insts: w.Offset}
		wc, wok, werr := inline.Get(k)
		gc, gok, gerr := background.Get(k)
		if !wok || !gok || werr != nil || gerr != nil {
			t.Fatalf("checkpoint at %d: inline ok=%v err=%v, background ok=%v err=%v", w.Offset, wok, werr, gok, gerr)
		}
		if !bytes.Equal(gc.Encode(), wc.Encode()) {
			t.Fatalf("checkpoint at %d differs between inline and background writes", w.Offset)
		}
	}
}

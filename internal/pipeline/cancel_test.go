package pipeline

import (
	"context"
	"errors"
	"testing"
)

// never is a non-nil, never-closed Done channel: it forces RunContext off
// its context.Background fast path so the periodic Err poll actually runs.
var never = make(chan struct{})

// countdownCtx reports Canceled after its Err method has been polled n
// times. RunContext polls at a fixed cycle interval, so the cancellation
// point is deterministic — the test aborts at exactly the same cycle on
// every run.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Done() <-chan struct{} { return never }

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestRunContextCancelThenReuse pins the service's cancellation contract:
// a run abandoned mid-flight must leave the pipeline Reset-able, and the
// run after the Reset must be bit-identical to a run on a pipeline that was
// never aborted.
func TestRunContextCancelThenReuse(t *testing.T) {
	img := sumProgram(t, 4000)
	for _, cfg := range testConfigs(20_000) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			v := streamView(t, img, cfg.MaxInsts)
			p, err := NewWithTrace(cfg, img, v)
			if err != nil {
				t.Fatalf("NewWithTrace: %v", err)
			}
			st, err := p.Run()
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			ref := *st

			// Abort a second run on the same pipeline at the first context
			// poll (~ctxCheckCycles in).
			if err := p.Reset(cfg, img, v); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			partial, err := p.RunContext(&countdownCtx{Context: context.Background(), n: 0})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext on canceled ctx: err=%v, want context.Canceled", err)
			}
			if partial.Cycles == 0 || partial.Cycles >= ref.Cycles {
				t.Fatalf("abandoned run stopped at cycle %d, want mid-run (reference took %d)", partial.Cycles, ref.Cycles)
			}
			if partial.Retired >= ref.Retired {
				t.Fatalf("abandoned run retired %d, want fewer than the reference %d", partial.Retired, ref.Retired)
			}

			// The aborted pipeline must come back clean: a full rerun after
			// Reset reproduces the reference statistics exactly.
			if err := p.Reset(cfg, img, v); err != nil {
				t.Fatalf("Reset after abort: %v", err)
			}
			st2, err := p.Run()
			if err != nil {
				t.Fatalf("rerun after abort: %v", err)
			}
			if *st2 != ref {
				t.Fatalf("rerun after aborted run diverged:\n got %+v\nwant %+v", *st2, ref)
			}
		})
	}
}

// TestRunContextBackgroundMatchesRun checks the fast path: RunContext with a
// never-canceled context behaves exactly like Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	img := sumProgram(t, 500)
	cfg := testConfigs(5_000)[0]
	v := streamView(t, img, cfg.MaxInsts)
	p, err := NewWithTrace(cfg, img, v)
	if err != nil {
		t.Fatalf("NewWithTrace: %v", err)
	}
	st, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := *st
	if err := p.Reset(cfg, img, v); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	st2, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if *st2 != ref {
		t.Fatalf("RunContext(Background) diverged from Run:\n got %+v\nwant %+v", *st2, ref)
	}
}

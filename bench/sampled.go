package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sfcmdt/internal/harness"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/prog"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// sampledWorkloads are the programs sampled-ckpt estimates: two integer and
// two floating-point codes with different memory footprints, so snapshot
// sizes vary. They are fixed rather than drawn by seed because their
// fast-forward costs differ by half again, which would make the seed, not
// the program, set the op's cost.
var sampledWorkloads = []string{"bzip2", "mcf", "equake", "swim"}

// sampledCkpt estimates IPC by systematic sampling. Each op makes a cold
// pass — Prepare against an empty on-disk checkpoint store, then the
// intervals measured under MDT/SFC ENF — and a warm pass that prepares
// again from the stored checkpoints and measures under NOT-ENF, as a second
// sweep point would.
type sampledCkpt struct {
	seed    uint64
	plan    sample.Plan
	names   []string
	imgs    []*prog.Image
	root    string // holds each op's store
	configs [2]pipeline.Config
}

// newSampledCkpt draws the plan's phase (its fast-forward length, within
// 4096 instructions) and the workload order from the seed: the checkpoints
// and measured intervals differ by seed while the op's cost stays put.
func newSampledCkpt(seed uint64) (*sampledCkpt, error) {
	r := rand.New(rand.NewPCG(seed, 0))
	c := &sampledCkpt{
		seed: seed,
		plan: sample.Plan{FastForward: 500_000 + 16*uint64(r.IntN(256)), Warm: 2000, Measure: 8000, Intervals: 16},
		configs: [2]pipeline.Config{
			harness.BaselineConfig(harness.MDTSFCEnf, 0),
			harness.BaselineConfig(harness.MDTSFCNot, 0),
		},
	}
	for _, i := range r.Perm(len(sampledWorkloads)) {
		c.names = append(c.names, sampledWorkloads[i])
	}
	root, err := os.MkdirTemp("", "sampled-ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("sampled-ckpt: %w", err)
	}
	c.root = root
	return c, nil
}

func (c *sampledCkpt) setup(tr *tracer, parent int) error {
	c.imgs = c.imgs[:0]
	for _, name := range c.names {
		w, ok := workload.Get(name)
		if !ok {
			return fmt.Errorf("sampled-ckpt: workload %q is not registered", name)
		}
		s := tr.begin("workload.build", parent, 0)
		c.imgs = append(c.imgs, w.Build())
		s.end()
	}
	return nil
}

func (c *sampledCkpt) close() error { return os.RemoveAll(c.root) }

func (c *sampledCkpt) op(seq int, tr *tracer) (opOut, error) {
	out := opOut{attempted: 1, lanes: 1, digestKey: strconv.FormatUint(c.seed, 10)}
	dir, err := os.MkdirTemp(c.root, "op-*")
	if err != nil {
		return out, fmt.Errorf("sampled-ckpt: %w", err)
	}
	out.cleanup = func() { os.RemoveAll(dir) }
	ds, err := snapshot.NewDiskStore(dir)
	if err != nil {
		return out, fmt.Errorf("sampled-ckpt: %w", err)
	}
	store := newSnapshotProbe(ds, tr)

	root := tr.begin("op", -1, -1)
	restored := 0
	for pass, cfg := range c.configs {
		cold := pass == 0
		for _, img := range c.imgs {
			s := tr.begin("sample.prepare", root.id, 0)
			store.parent.Store(int64(s.id))
			ivs, err := sample.Prepare(img, c.plan, store, "")
			if err != nil {
				s.end()
				out.fail("%s: prepare: %v", img.Name, err)
				continue
			}
			s.endWork(cfg.Name, ivs.FFInsts, 0)
			switch {
			case cold && (ivs.Restored != 0 || ivs.FFInsts != uint64(c.plan.Intervals)*c.plan.FastForward):
				out.fail("%s: cold prepare restored %d intervals and fast-forwarded %d insts", img.Name, ivs.Restored, ivs.FFInsts)
			case !cold && (ivs.Restored != len(ivs.Ivs) || ivs.FFInsts != 0):
				out.fail("%s: warm prepare restored %d of %d intervals", img.Name, ivs.Restored, len(ivs.Ivs))
			}
			if !cold {
				restored += ivs.Restored
			}

			s = tr.begin("sample.run", root.id, 0)
			t0 := time.Now()
			res, err := ivs.RunParallel(context.Background(), cfg, 2, nil)
			ns := float64(time.Since(t0).Nanoseconds())
			if err != nil {
				s.end()
				out.fail("%s under %s: %v", img.Name, cfg.Name, err)
				continue
			}
			s.endWork(cfg.Name, res.Measured.Retired, res.Measured.Cycles)
			// RunParallel measures the intervals on two lanes: charge both.
			out.work = append(out.work, workUnit{cfg.Name, 2 * ns, res.Measured.Cycles})
			out.cells = append(out.cells, cell{img.Name, cfg.Name, *res.Measured})
			out.insts += c.plan.Span()
		}
	}
	root.end()
	if tr != nil {
		out.layer = map[string]float64{
			"sample.restored": float64(restored),
			"snapshot.bytes":  float64(dirBytes(dir)),
		}
	}
	out.digest = statsDigest(out.cells)
	return out, nil
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

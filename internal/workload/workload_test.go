package workload_test

import (
	"testing"

	"sfcmdt/internal/harness"
	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/workload"
)

// TestRegistry checks the workload inventory matches the paper's benchmark
// list (12 SPECint-like + 8 SPECfp-like; mesa absent from aggressive runs).
func TestRegistry(t *testing.T) {
	ws := workload.All()
	if len(ws) != 20 {
		t.Fatalf("got %d workloads, want 20: %v", len(ws), workload.Names())
	}
	ints, fps, agg := 0, 0, 0
	for _, w := range ws {
		switch w.Class {
		case workload.Int:
			ints++
		case workload.FP:
			fps++
		default:
			t.Errorf("%s: bad class %q", w.Name, w.Class)
		}
		if w.InAggressive {
			agg++
		}
		if w.Pathology == "" {
			t.Errorf("%s: missing pathology documentation", w.Name)
		}
	}
	if ints != 12 || fps != 8 || agg != 19 {
		t.Fatalf("got %d int, %d fp, %d aggressive; want 12/8/19", ints, fps, agg)
	}
	if mesa, ok := workload.Get("mesa"); !ok || mesa.InAggressive {
		t.Error("mesa must exist and be excluded from aggressive runs")
	}
}

// TestFunctional runs every workload on the golden model alone: programs
// must execute aligned, in-segment, and not halt within the budget (they
// are designed to run indefinitely).
func TestFunctional(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img := w.Build()
			s, err := replay.Materialize(img, 50_000)
			if err != nil {
				t.Fatalf("functional run: %v", err)
			}
			if s.Halted {
				t.Fatalf("workload halted after %d insts; must run past any budget", s.Len())
			}
			loads, stores, branches := 0, 0, 0
			for i := 0; i < s.Len(); i++ {
				r := s.RecordAt(i)
				if r.IsLoad {
					loads++
				}
				if r.IsStore {
					stores++
				}
				if r.IsBranch {
					branches++
				}
			}
			if loads == 0 || branches == 0 {
				t.Errorf("degenerate workload: %d loads, %d stores, %d branches", loads, stores, branches)
			}
			t.Logf("%s: %d insts, %d loads, %d stores, %d branches", w.Name, s.Len(), loads, stores, branches)
		})
	}
}

// TestPipelineValidation is the central integration test: every workload
// retires correctly (validated against its reference stream) under the paper's
// baseline and aggressive processors with both memory subsystems.
func TestPipelineValidation(t *testing.T) {
	budget := uint64(15_000)
	if testing.Short() {
		budget = 4_000
	}
	r := harness.NewRunner(budget)
	cfgs := []pipeline.Config{
		harness.BaselineConfig(harness.LSQ48x32, budget),
		harness.BaselineConfig(harness.MDTSFCEnf, budget),
		harness.BaselineConfig(harness.MDTSFCNot, budget),
		harness.AggressiveConfig(harness.LSQ120x80, budget),
		harness.AggressiveConfig(harness.MDTSFCTotal, budget),
		harness.AggressiveConfig(harness.MVSFC, budget),
		harness.AggressiveConfig(harness.ValueReplay120x80, budget),
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range cfgs {
				res := r.Run(cfg, w)
				if res.Err != nil {
					t.Errorf("%s: %v", cfg.Name, res.Err)
					continue
				}
				if res.Stats.Retired == 0 {
					t.Errorf("%s: retired nothing", cfg.Name)
				}
			}
		})
	}
}

// TestPathologies checks that the engineered workloads actually trigger the
// structural behaviours the paper attributes to them.
func TestPathologies(t *testing.T) {
	if testing.Short() {
		t.Skip("pathology rates need a non-trivial instruction budget")
	}
	r := harness.NewRunner(30_000)
	agg := harness.AggressiveConfig(harness.MDTSFCTotal, r.MaxInsts)

	bzip2, _ := workload.Get("bzip2")
	res := r.Run(agg, bzip2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if rate := res.Stats.StoreSFCConflictRate(); rate < 0.10 {
		t.Errorf("bzip2 SFC conflict rate %.3f; want substantial (paper: >0.50)", rate)
	}

	mcf, _ := workload.Get("mcf")
	res = r.Run(agg, mcf)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if rate := res.Stats.LoadMDTConflictRate(); rate < 0.02 {
		t.Errorf("mcf MDT conflict rate %.4f; want substantial (paper: >0.16)", rate)
	}

	route, _ := workload.Get("vpr_route")
	res = r.Run(agg, route)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if rate := res.Stats.LoadCorruptionRate(); rate < 0.01 {
		t.Errorf("vpr_route corruption replay rate %.4f; want substantial (paper: ~0.20)", rate)
	}

	// A streaming control: swim should show none of the pathologies.
	swim, _ := workload.Get("swim")
	res = r.Run(agg, swim)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if rate := res.Stats.StoreSFCConflictRate(); rate > 0.05 {
		t.Errorf("swim SFC conflict rate %.4f; want near zero", rate)
	}
}

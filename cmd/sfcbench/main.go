// Command sfcbench regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index). Each subcommand prints one experiment;
// `all` prints every one.
//
// Usage:
//
//	sfcbench [-insts N] [-v] <experiment>...
//
// Experiments:
//
//	figure4             simulator parameter table (E1)
//	figure5             baseline-processor comparison (E2)
//	figure6             aggressive-processor comparison (E3)
//	violations          anti+output violation-rate reduction (E4)
//	enf-vs-notenf       aggressive ENF vs NOT-ENF (E5)
//	conflicts           SFC/MDT structural-conflict rates (E6)
//	assoc16             2-way vs 16-way SFC/MDT (E7)
//	corruption          SFC corruption replay rates (E8)
//	granularity         MDT granularity sweep (E9)
//	recovery            recovery-policy ablation (E10)
//	tagged-vs-untagged  tagged vs untagged MDT (E11)
//	flush-endpoints     corruption bits vs flush-endpoint tracking (E12)
//	window-scaling      instruction-window scaling (E13)
//	search-work         associative-search work per memory op (E14)
//	value-replay        completion- vs retirement-time disambiguation (E15)
//	multi-version       single- vs multi-version SFC (renaming) (E16)
//	structure-scaling   SFC/MDT size sweep (E17)
//	search-filter       SVW search filtering on a small MDT (E18)
//	all                 everything above
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sfcmdt/internal/harness"
)

func main() {
	insts := flag.Uint64("insts", 200_000, "correct-path instructions simulated per run")
	verbose := flag.Bool("v", false, "print per-run progress")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sfcbench [-insts N] [-v] <experiment>...\n\nexperiments: figure4 figure5 figure6 violations enf-vs-notenf conflicts assoc16 corruption granularity recovery tagged-vs-untagged flush-endpoints window-scaling search-work value-replay multi-version structure-scaling search-filter all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	r := harness.NewRunner(*insts)
	if *verbose {
		r.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Representative subsets for the ablation experiments: the two
	// conflict pathologies, one corruption pathology, a forwarding-heavy
	// code, and a streaming control.
	ablation := []string{"bzip2", "mcf", "vpr_route", "gzip", "swim"}

	type experiment struct {
		name string
		run  func() (*harness.Table, error)
	}
	experiments := []experiment{
		{"figure4", func() (*harness.Table, error) { return harness.Figure4(), nil }},
		{"figure5", func() (*harness.Table, error) { return harness.Figure5(r) }},
		{"figure6", func() (*harness.Table, error) { return harness.Figure6(r) }},
		{"violations", func() (*harness.Table, error) { return harness.Violations(r) }},
		{"enf-vs-notenf", func() (*harness.Table, error) { return harness.EnfVsNotEnf(r) }},
		{"conflicts", func() (*harness.Table, error) { return harness.Conflicts(r) }},
		{"assoc16", func() (*harness.Table, error) { return harness.Assoc16(r) }},
		{"corruption", func() (*harness.Table, error) { return harness.Corruption(r) }},
		{"granularity", func() (*harness.Table, error) { return harness.Granularity(r, ablation) }},
		{"recovery", func() (*harness.Table, error) { return harness.Recovery(r, ablation) }},
		{"tagged-vs-untagged", func() (*harness.Table, error) { return harness.TaggedVsUntagged(r, ablation) }},
		{"flush-endpoints", func() (*harness.Table, error) {
			return harness.FlushEndpoints(r, []string{"vpr_route", "ammp", "equake"})
		}},
		{"window-scaling", func() (*harness.Table, error) {
			return harness.WindowScaling(r, []string{"gcc", "art", "mcf"})
		}},
		{"search-work", func() (*harness.Table, error) { return harness.SearchWork(r) }},
		{"value-replay", func() (*harness.Table, error) { return harness.ValueReplayComparison(r) }},
		{"multi-version", func() (*harness.Table, error) { return harness.MultiVersion(r) }},
		{"structure-scaling", func() (*harness.Table, error) {
			return harness.StructureScaling(r, []string{"bzip2", "mcf", "gzip", "art"})
		}},
		{"search-filter", func() (*harness.Table, error) {
			return harness.SearchFilter(r, []string{"mcf", "gcc", "equake"})
		}},
	}

	want := make(map[string]bool, flag.NArg())
	all := false
	for _, a := range flag.Args() {
		if a == "all" {
			all = true
			continue
		}
		want[a] = true
	}
	for _, e := range experiments {
		if !all && !want[e.name] {
			continue
		}
		delete(want, e.name)
		start := time.Now()
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfcbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	if len(want) > 0 {
		for n := range want {
			fmt.Fprintf(os.Stderr, "sfcbench: unknown experiment %q\n", n)
		}
		flag.Usage()
		os.Exit(2)
	}
}

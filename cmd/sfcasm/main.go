// Command sfcasm assembles a program, disassembles it, and optionally runs
// it — on the functional golden model or on a full pipeline configuration.
//
// Usage:
//
//	sfcasm [-run arch|baseline|aggressive] [-insts N] [-dump] file.s
package main

import (
	"flag"
	"fmt"
	"os"

	"sfcmdt/internal/arch"
	"sfcmdt/sim"
)

func main() {
	run := flag.String("run", "", "execute the program: arch (functional), baseline, or aggressive")
	insts := flag.Uint64("insts", 1_000_000, "instruction budget")
	dump := flag.Bool("dump", false, "print the disassembly")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sfcasm [-run arch|baseline|aggressive] [-insts N] [-dump] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcasm: %v\n", err)
		os.Exit(1)
	}
	img, err := sim.Assemble(flag.Arg(0), string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcasm: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("assembled %d instructions, %d data bytes\n", len(img.Code), len(img.Data))
	if *dump {
		fmt.Print(sim.Disassemble(img))
	}

	switch *run {
	case "":
	case "arch":
		m := arch.New(img)
		if err := m.Run(*insts, nil); err != nil {
			fmt.Fprintf(os.Stderr, "sfcasm: %s: after %d insts: %v\n", img.Name, m.Count, err)
			os.Exit(1)
		}
		fmt.Printf("functional run: %d instructions retired, halted=%v\n", m.Count, m.Halted)
	case "baseline", "aggressive":
		var cfg sim.Config
		if *run == "baseline" {
			cfg = sim.Baseline(sim.MDTSFCEnf, *insts)
		} else {
			cfg = sim.Aggressive(sim.MDTSFCTotal, *insts)
		}
		st, err := sim.Run(cfg, img)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfcasm: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pipeline run (%s): %s\n", cfg.Name, st)
	default:
		fmt.Fprintf(os.Stderr, "sfcasm: unknown -run mode %q\n", *run)
		os.Exit(2)
	}
}

// Command bench is the repository benchmark. It runs one workload, or all of
// them with each in a fresh child process, for a fixed time; checks the
// simulator's outputs; and prints the end-to-end metrics named in
// BENCHMARK.json — or, with --trace 1, the per-layer metrics measured by
// wrapping spans around the calls into each module. The last line of
// standard output is the result as one JSON object; tables go to standard
// error. Run it from the checkout root through bench/run.sh, which builds
// it; see bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// runFile is a run's results as written by --out and read by --compare.
type runFile struct {
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func main() {
	// Every layer sizes its parallelism from GOMAXPROCS at first use, so
	// this must come first: the benchmark's load shape is two CPUs.
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 0, "seconds of ops to measure per workload (default: run_seconds of "+specFile+")")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced ops instead of end-to-end metrics")
	spans := fs.String("spans", "", "with --trace 1, write every span to this file as JSON lines")
	out := fs.String("out", "", "also write the results to this JSON file")
	compare := fs.Bool("compare", false, "compare result files given as arguments: two directories' worth, baseline first")
	update := fs.Bool("update-digests", false, "regenerate "+digestFile+" (only for a change to the benchmark or to simulated behaviour)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	switch {
	case *compare:
		regressed, err := compareRuns(spec, fs.Args(), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 3
		}
		return 0
	case *update:
		err = updateDigests(spec)
	case *name != "":
		err = runOne(spec, *name, *seed, *seconds, *trace == 1, *spans, *out)
	default:
		err = runAll(spec, *seed, *seconds, *trace == 1, *spans, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints its result.
func runOne(spec *benchSpec, name string, seed uint64, seconds int, traced bool, spansPath, outPath string) error {
	if !spec.hasWorkload(name) {
		return fmt.Errorf("unknown workload %q", name)
	}
	ms, err := measureWorkload(name, seed, seconds, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var values map[string]float64
	if traced {
		values = ms.perLayer()
		ms.layerTable(os.Stderr)
		if spansPath != "" {
			if err := ms.tr.writeFile(spansPath); err != nil {
				return err
			}
		}
	} else {
		values = ms.endToEnd()
	}
	res, err := ms.result(spec.metrics(traced), values)
	if err != nil {
		return err
	}
	for _, o := range ms.ops {
		for _, p := range o.out.problems {
			fmt.Fprintf(os.Stderr, "%s: op %d: %s\n", name, o.seq, p)
		}
	}
	for _, p := range ms.problems {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, p)
	}
	rf := runFile{Seed: seed, Seconds: seconds, Trace: traced, Workloads: map[string]result{name: res}}
	printTable(os.Stderr, spec, rf)
	return emit(rf, res, outPath)
}

// runAll measures every workload, each in a fresh child process so that
// heap growth and warm caches do not carry from one into the next and each
// peak RSS belongs to one workload.
func runAll(spec *benchSpec, seed uint64, seconds int, traced bool, spansPath, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := runFile{Seed: seed, Seconds: seconds, Trace: traced, Workloads: make(map[string]result)}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for _, w := range spec.Workloads {
		args := []string{"--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", traceArg}
		if spansPath != "" {
			args = append(args, "--spans", spansPath+"."+w.Name)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		res, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rf.Workloads[w.Name] = res
	}
	printTable(os.Stderr, spec, rf)
	return emit(rf, rf, outPath)
}

// emit writes the run file, if asked, and prints last the result as one
// line of JSON: the workload's result for one workload, the run file for
// all of them.
func emit(rf runFile, last any, outPath string) error {
	if outPath != "" {
		b, err := json.Marshal(rf)
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// lastResult parses the last line of a child's standard output.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if last == nil {
		return res, errors.New("no result printed")
	}
	return res, json.Unmarshal(last, &res)
}

// updateDigests regenerates the expected output digests from one op per
// workload and seed: seeds 1 and 2, the second being held out from tuning.
func updateDigests(spec *benchSpec) error {
	d := make(digests)
	for _, w := range spec.Workloads {
		d[w.Name] = make(map[string]string)
		for _, seed := range []uint64{1, 2} {
			b, err := newWorkload(w.Name, seed)
			if err != nil {
				return err
			}
			err = b.setup(nil, -1)
			var out opOut
			if err == nil {
				out, err = b.op(0, nil)
			}
			if out.cleanup != nil {
				out.cleanup()
			}
			if cerr := b.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if len(out.problems) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.Name, seed, out.problems[0])
			}
			d[w.Name][out.digestKey] = out.digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %s = %.16s\n", w.Name, seed, out.digestKey, out.digest)
			if out.digestKey == "*" {
				break // the outputs do not depend on the seed
			}
		}
	}
	return d.save()
}

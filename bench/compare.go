package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// printTable prints a run's metrics, one row per (workload, metric).
func printTable(w io.Writer, spec *benchSpec, rf runFile) {
	fmt.Fprintf(w, "seed %d, %d s per workload\n", rf.Seed, rf.Seconds)
	fmt.Fprintf(w, "  %-15s %-34s %16s  %s\n", "workload", "metric", "value", "unit")
	for _, wl := range spec.Workloads {
		res, ok := rf.Workloads[wl.Name]
		if !ok {
			continue
		}
		for _, m := range spec.metrics(rf.Trace) {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "  %-15s %-34s %16.6g  %s\n", wl.Name, m.Name, v.Value, v.Unit)
			}
		}
		fmt.Fprintf(w, "  %-15s %-34s %16s  (%d of %d ops failed)\n", wl.Name, "correct", fmt.Sprint(res.Correct), res.Failed, res.Attempted)
	}
}

// absFloor is, per metric, the smallest change in the metric's own unit that
// counts against its bound. A set-up takes 0.1–0.5 s, so a change of 50 ms
// or less is within the bound whatever share of the median it is.
var absFloor = map[string]float64{"setup_s": 0.05}

// compareRuns compares two groups of run files — the arguments grouped by
// directory, the first directory being the baseline — pairing the i-th file
// of one group with the i-th of the other in name order. It prints, per
// (metric, workload), each side's median and quartiles, the candidate's win
// fraction and a verdict, and reports whether anything regressed.
func compareRuns(spec *benchSpec, files []string, w io.Writer) (bool, error) {
	var dirs []string
	groups := make(map[string][]string)
	for _, f := range files {
		d := filepath.Dir(f)
		if _, ok := groups[d]; !ok {
			dirs = append(dirs, d)
		}
		groups[d] = append(groups[d], f)
	}
	if len(dirs) != 2 {
		return false, fmt.Errorf("compare wants result files from exactly two directories, got %d", len(dirs))
	}
	a, err := loadRuns(groups[dirs[0]])
	if err != nil {
		return false, err
	}
	b, err := loadRuns(groups[dirs[1]])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "baseline %s (%d runs) vs candidate %s (%d runs)\n", dirs[0], len(a), dirs[1], len(b))
	fmt.Fprintf(w, "%-15s %-34s %-28s %-28s %5s  %s\n", "workload", "metric", "baseline median [q1 q3]", "candidate median [q1 q3]", "wins", "verdict")
	regressedAny := false
	for _, wl := range spec.Workloads {
		failedA, attA := failures(a, wl.Name)
		failedB, attB := failures(b, wl.Name)
		if attA == 0 || attB == 0 {
			continue
		}
		if ratio(float64(failedB), float64(attB)) > ratio(float64(failedA), float64(attA)) {
			regressedAny = true
			fmt.Fprintf(w, "%-15s %-34s %-28s %-28s %5s  %s\n", wl.Name, "error_rate",
				fmt.Sprintf("%d/%d", failedA, attA), fmt.Sprintf("%d/%d", failedB, attB), "", regressed)
		}
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			av, bv := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			// Per-layer metrics have no bound and get no verdict.
			v, wins := "-", ""
			if m.Bound > 0 {
				var wf float64
				v, wf = verdict(av, bv, m.Better == "lower", m.Bound, absFloor[m.Name])
				wins = fmt.Sprintf("%.2f", wf)
				regressedAny = regressedAny || v == regressed
			}
			fmt.Fprintf(w, "%-15s %-34s %-28s %-28s %5s  %s\n", wl.Name, m.Name, quartileText(av), quartileText(bv), wins, v)
		}
	}
	return regressedAny, nil
}

func loadRuns(files []string) ([]runFile, error) {
	sort.Strings(files)
	runs := make([]runFile, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// values returns a metric's value from every run that has it, in run order.
func values(runs []runFile, workload, metric string) []float64 {
	var xs []float64
	for _, rf := range runs {
		if v, ok := rf.Workloads[workload].Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func failures(runs []runFile, workload string) (failed, attempted int) {
	for _, rf := range runs {
		res := rf.Workloads[workload]
		failed += res.Failed
		attempted += res.Attempted
	}
	return failed, attempted
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", q2, q1, q3)
}

package harness

import (
	"fmt"

	"sfcmdt/internal/pipeline"
	"sfcmdt/internal/workload"
)

// aggressiveWorkloads returns the workloads that appear in the paper's
// aggressive-processor figures (Figure 6 omits mesa).
func aggressiveWorkloads() []workload.Workload {
	var ws []workload.Workload
	for _, w := range workload.All() {
		if w.InAggressive {
			ws = append(ws, w)
		}
	}
	return ws
}

// classAverages appends int-average and fp-average rows computed with the
// geometric mean of the given per-workload columns.
func classAverages(t *Table, ws []workload.Workload, cols [][]float64, fmtCell func(float64) string) {
	for _, class := range []workload.Class{workload.Int, workload.FP} {
		row := []string{string(class) + " avg"}
		for c := range cols {
			var xs []float64
			for i, w := range ws {
				if w.Class == class {
					xs = append(xs, cols[c][i])
				}
			}
			row = append(row, fmtCell(geomean(xs)))
		}
		t.AddRow(row...)
	}
}

// Figure4 reproduces the paper's simulator-parameter table (experiment E1).
func Figure4() *Table {
	b := BaselineConfig(MDTSFCEnf, 1)
	a := AggressiveConfig(MDTSFCTotal, 1)
	t := &Table{
		Title:  "Figure 4: simulator parameters",
		Header: []string{"Parameter", "Baseline", "Aggressive"},
	}
	t.AddRow("Pipeline width", fmt.Sprintf("%d instr/cycle", b.Width), fmt.Sprintf("%d instr/cycle", a.Width))
	t.AddRow("Fetch bandwidth", fmt.Sprintf("max %d branch/cycle", b.FetchBranches), fmt.Sprintf("up to %d branches/cycle", a.FetchBranches))
	t.AddRow("Branch predictor", "8Kbit gshare + 80% oracle", "8Kbit gshare + 80% oracle")
	t.AddRow("Mem dep predictor", "16K PT/CT, 4K ids, 512 LFPT", "16K PT/CT, 4K ids, 512 LFPT")
	penalty := fmt.Sprintf("%d cycles", pipeline.MispredictPenalty)
	t.AddRow("Mispredict penalty", penalty, penalty)
	t.AddRow("MDT", fmt.Sprintf("%d sets, %d-way", b.MDT.Sets, b.MDT.Ways), fmt.Sprintf("%d sets, %d-way", a.MDT.Sets, a.MDT.Ways))
	t.AddRow("SFC", fmt.Sprintf("%d sets, %d-way", b.SFC.Sets, b.SFC.Ways), fmt.Sprintf("%d sets, %d-way", a.SFC.Sets, a.SFC.Ways))
	t.AddRow("Renamer checkpoints", fmt.Sprintf("%d", b.ROBSize), fmt.Sprintf("%d", a.ROBSize))
	t.AddRow("Scheduling window", fmt.Sprintf("%d entries", b.ROBSize), fmt.Sprintf("%d entries", a.ROBSize))
	t.AddRow("Reorder buffer", fmt.Sprintf("%d entries", b.ROBSize), fmt.Sprintf("%d entries", a.ROBSize))
	t.AddRow("Function units", fmt.Sprintf("%d fully pipelined", b.Width), fmt.Sprintf("%d fully pipelined", a.Width))
	t.AddRow("L1 I-cache", "8KB 2-way 128B, 10-cycle miss", "same")
	t.AddRow("L1 D-cache", "8KB 4-way 64B, 10-cycle miss", "same")
	t.AddRow("L2 cache", "512KB 8-way 128B, 100-cycle miss", "same")
	return t
}

// Figure5 reproduces the baseline-processor comparison (E2): MDT/SFC with
// the producer-set predictor in ENF and NOT-ENF modes, normalized to the
// idealized 48x32 LSQ, across all 20 workloads plus class averages.
func Figure5(r *Runner) (*Table, error) {
	ws := workload.All()
	cfgs := []pipeline.Config{
		BaselineConfig(LSQ48x32, r.MaxInsts),
		BaselineConfig(MDTSFCEnf, r.MaxInsts),
		BaselineConfig(MDTSFCNot, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 5: baseline 4-wide superscalar, normalized to 48x32 LSQ",
		Note: "Left data column: the idealized LSQ's absolute IPC. ENF: MDT/SFC with the " +
			"producer-set predictor enforcing predicted true, anti, and output " +
			"dependences. NOT-ENF: enforcing only true dependences. Paper's claim: " +
			"ENF within ~1% of the LSQ on average, NOT-ENF within ~3%.",
		Header: []string{"benchmark", "LSQ IPC", "ENF", "NOT-ENF"},
	}
	enfCol := make([]float64, len(ws))
	notCol := make([]float64, len(ws))
	for i, w := range ws {
		base := m[i][0].Stats.IPC()
		enfCol[i] = m[i][1].Stats.IPC() / base
		notCol[i] = m[i][2].Stats.IPC() / base
		t.AddRow(w.Name, f3(base), f3(enfCol[i]), f3(notCol[i]))
	}
	classAverages(t, ws, [][]float64{enfCol, notCol}, f3)
	// Shift the averages to skip the absolute-IPC column.
	for i := len(t.Rows) - 2; i < len(t.Rows); i++ {
		t.Rows[i] = []string{t.Rows[i][0], "", t.Rows[i][1], t.Rows[i][2]}
	}
	return t, nil
}

// Figure6 reproduces the aggressive-processor comparison (E3): 256x256 LSQ,
// 48x32 LSQ, and MDT/SFC with total-order ENF, normalized to the 120x80 LSQ.
func Figure6(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{
		AggressiveConfig(LSQ120x80, r.MaxInsts),
		AggressiveConfig(LSQ256x256, r.MaxInsts),
		AggressiveConfig(LSQ48x32, r.MaxInsts),
		AggressiveConfig(MDTSFCTotal, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 6: aggressive 8-wide superscalar, normalized to 120x80 LSQ",
		Note: "Paper's claim: the MDT/SFC (1K-entry SFC, 16K-entry MDT, total-order ENF) " +
			"lands ~9% below the idealized 120x80 LSQ on specint and ~2% above on specfp; " +
			"the 48x32 LSQ shows the cost of a too-small queue.",
		Header: []string{"benchmark", "LSQ120x80 IPC", "lsq256x256", "lsq48x32", "mdt/sfc ENF"},
	}
	c1 := make([]float64, len(ws))
	c2 := make([]float64, len(ws))
	c3 := make([]float64, len(ws))
	for i, w := range ws {
		base := m[i][0].Stats.IPC()
		c1[i] = m[i][1].Stats.IPC() / base
		c2[i] = m[i][2].Stats.IPC() / base
		c3[i] = m[i][3].Stats.IPC() / base
		t.AddRow(w.Name, f3(base), f3(c1[i]), f3(c2[i]), f3(c3[i]))
	}
	classAverages(t, ws, [][]float64{c1, c2, c3}, f3)
	for i := len(t.Rows) - 2; i < len(t.Rows); i++ {
		t.Rows[i] = []string{t.Rows[i][0], "", t.Rows[i][1], t.Rows[i][2], t.Rows[i][3]}
	}
	return t, nil
}

// Violations reproduces the §3.1 claim (E4): enforcing predicted anti and
// output dependences cuts the anti+output violation rate by more than an
// order of magnitude on the baseline processor.
func Violations(r *Runner) (*Table, error) {
	ws := workload.All()
	cfgs := []pipeline.Config{
		BaselineConfig(MDTSFCNot, r.MaxInsts),
		BaselineConfig(MDTSFCEnf, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E4 (§3.1): anti+output violation rate, baseline MDT/SFC",
		Note: "Violations per retired load or store. Paper's claim: the ENF predictor " +
			"reduces the anti+output rate by more than an order of magnitude.",
		Header: []string{"benchmark", "NOT-ENF", "ENF", "reduction"},
	}
	for i, w := range ws {
		n := m[i][0].Stats.AntiOutputViolationRate()
		e := m[i][1].Stats.AntiOutputViolationRate()
		red := "-"
		if e > 0 {
			red = fmt.Sprintf("%.1fx", n/e)
		} else if n > 0 {
			red = "inf"
		}
		t.AddRow(w.Name, pct(n), pct(e), red)
	}
	return t, nil
}

// EnfVsNotEnf reproduces the §3.2 claim (E5): on the aggressive processor,
// total-order ENF beats NOT-ENF (+14% int, +43% fp in the paper) and cuts
// the overall violation rate (0.93% -> 0.11% in the paper).
func EnfVsNotEnf(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{
		AggressiveConfig(MDTSFCNot, r.MaxInsts),
		AggressiveConfig(MDTSFCTotal, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E5 (§3.2): aggressive processor, ENF(total-order) vs NOT-ENF",
		Note: "Paper's claim: ENF IPC is ~14% higher on specint, ~43% higher on specfp; " +
			"mean violation rate falls 0.93% -> 0.11%.",
		Header: []string{"benchmark", "NOT-ENF IPC", "ENF IPC", "speedup", "viol NOT-ENF", "viol ENF"},
	}
	speed := make([]float64, len(ws))
	var vn, ve []float64
	for i, w := range ws {
		sn, se := m[i][0].Stats, m[i][1].Stats
		speed[i] = se.IPC() / sn.IPC()
		vn = append(vn, sn.ViolationRate())
		ve = append(ve, se.ViolationRate())
		t.AddRow(w.Name, f3(sn.IPC()), f3(se.IPC()), f3(speed[i]), pct(sn.ViolationRate()), pct(se.ViolationRate()))
	}
	classAverages(t, ws, [][]float64{speed}, f3)
	for i := len(t.Rows) - 2; i < len(t.Rows); i++ {
		t.Rows[i] = []string{t.Rows[i][0], "", "", t.Rows[i][1], "", ""}
	}
	t.AddRow("mean viol", "", "", "", pct(mean(vn)), pct(mean(ve)))
	return t, nil
}

// Conflicts reproduces the §3.2 structural-conflict analysis (E6): bzip2's
// SFC set conflicts and mcf's MDT set conflicts dominate their slowdowns.
func Conflicts(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{AggressiveConfig(MDTSFCTotal, r.MaxInsts)}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E6 (§3.2): structural-conflict replay rates, aggressive MDT/SFC",
		Note: "SFC column: store replays per retired store (paper: >50% for bzip2, " +
			"<0.16% elsewhere). MDT column: load replays per retired load (paper: >16% " +
			"for mcf, ~0.002% elsewhere).",
		Header: []string{"benchmark", "SFC conflicts/store", "MDT conflicts/load"},
	}
	for i, w := range ws {
		st := m[i][0].Stats
		t.AddRow(w.Name, pct(st.StoreSFCConflictRate()), pct(st.LoadMDTConflictRate()))
	}
	return t, nil
}

// Assoc16 reproduces the §3.2 associativity experiment (E7): raising SFC and
// MDT associativity to 16 (same set counts) rescues bzip2 and mcf.
func Assoc16(r *Runner) (*Table, error) {
	names := []string{"bzip2", "mcf"}
	base := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
	wide := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
	wide.Name = "aggressive/mdtsfc-16way"
	wide.MDT.Ways = 16
	wide.SFC.Ways = 16
	t := &Table{
		Title: "E7 (§3.2): 2-way vs 16-way SFC/MDT (same set counts)",
		Note: "Paper's claim: at 16 ways bzip2's SFC conflicts fall to 0.07% of stores " +
			"(+9.0% IPC) and mcf's MDT conflicts to 0.00% of loads (+6.5% IPC). The " +
			"'2-port' rows repeat the experiment with a finite (2-wide) memory unit, " +
			"where each replay consumes real issue bandwidth.",
		Header: []string{"benchmark", "ports", "IPC 2-way", "IPC 16-way", "speedup", "conflicts 2-way", "conflicts 16-way"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		for _, ports := range []int{0, 2} {
			b2, w16 := base, wide
			label := "inf"
			if ports > 0 {
				label = fmt.Sprintf("%d", ports)
				b2.Name = fmt.Sprintf("%s-p%d", b2.Name, ports)
				w16.Name = fmt.Sprintf("%s-p%d", w16.Name, ports)
			}
			b2.MemPorts = ports
			w16.MemPorts = ports
			r2 := r.Run(b2, w)
			r16 := r.Run(w16, w)
			if r2.Err != nil {
				return nil, r2.Err
			}
			if r16.Err != nil {
				return nil, r16.Err
			}
			var c2, c16 float64
			if name == "bzip2" {
				c2, c16 = r2.Stats.StoreSFCConflictRate(), r16.Stats.StoreSFCConflictRate()
			} else {
				c2, c16 = r2.Stats.LoadMDTConflictRate(), r16.Stats.LoadMDTConflictRate()
			}
			t.AddRow(name, label, f3(r2.Stats.IPC()), f3(r16.Stats.IPC()),
				f3(r16.Stats.IPC()/r2.Stats.IPC()), pct(c2), pct(c16))
		}
	}
	return t, nil
}

// Corruption reproduces the §3.2 corruption analysis (E8): vpr_route, ammp,
// and equake replay ~20% of loads on SFC corruptions; most others <=6%.
func Corruption(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{AggressiveConfig(MDTSFCTotal, r.MaxInsts)}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E8 (§3.2): SFC corruption replay rates, aggressive MDT/SFC",
		Note: "Corruption replays per retired load. Paper's claim: roughly 20% for " +
			"vpr_route, ammp, and equake; 6% or less for most others.",
		Header: []string{"benchmark", "corruption replays/load", "partial flushes", "full SFC flushes"},
	}
	for i, w := range ws {
		st := m[i][0].Stats
		flushes := st.MispredictFlushes + st.ViolationFlushes
		t.AddRow(w.Name, pct(st.LoadCorruptionRate()),
			fmt.Sprintf("%d", flushes-st.FullSFCFlushes), fmt.Sprintf("%d", st.FullSFCFlushes))
	}
	return t, nil
}

// Granularity is the E9 ablation: sweep the MDT granularity on the baseline
// processor (the paper states 8 bytes is adequate for a 64-bit processor).
func Granularity(r *Runner, names []string) (*Table, error) {
	grans := []int{1, 2, 4, 8, 16, 32, 64}
	t := &Table{
		Title: "E9 (§2.2 ablation): MDT granularity sweep, baseline MDT/SFC ENF",
		Note: "IPC at each entry granularity (bytes). Coarser granules alias distinct " +
			"addresses into one entry (spurious violations); finer granules cost " +
			"capacity. The paper states an 8-byte-granular MDT is adequate.",
		Header: []string{"benchmark", "1B", "2B", "4B", "8B", "16B", "32B", "64B"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		row := []string{name}
		for _, g := range grans {
			cfg := BaselineConfig(MDTSFCEnf, r.MaxInsts)
			cfg.Name = fmt.Sprintf("baseline/mdtsfc-gran%d", g)
			cfg.MDT.GranBytes = g
			res := r.Run(cfg, w)
			if res.Err != nil {
				return nil, res.Err
			}
			row = append(row, f3(res.Stats.IPC()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Recovery is the E10 ablation: the §2.4 recovery-policy optimizations.
func Recovery(r *Runner, names []string) (*Table, error) {
	variants := []struct {
		label string
		opts  pipeline.RecoveryOptions
	}{
		{"conservative", pipeline.RecoveryOptions{}},
		{"single-load", pipeline.RecoveryOptions{SingleLoadOpt: true}},
		{"corrupt-on-output", pipeline.RecoveryOptions{CorruptOnOutput: true}},
		{"both", pipeline.RecoveryOptions{SingleLoadOpt: true, CorruptOnOutput: true}},
	}
	t := &Table{
		Title: "E10 (§2.4 ablation): recovery-policy optimizations, aggressive MDT/SFC ENF",
		Note: "IPC under the conservative policy vs the §2.4.1 single-load flush-point " +
			"optimization and the §2.4.2 corrupt-instead-of-flush output-violation policy.",
		Header: []string{"benchmark", "conservative", "single-load", "corrupt-on-output", "both"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		row := []string{name}
		for _, v := range variants {
			cfg := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
			cfg.Name = "aggressive/mdtsfc-" + v.label
			cfg.Recovery = v.opts
			res := r.Run(cfg, w)
			if res.Err != nil {
				return nil, res.Err
			}
			row = append(row, f3(res.Stats.IPC()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// TaggedVsUntagged is the E11 ablation: tagged entries prevent aliasing at
// the cost of set conflicts; untagged entries alias freely and detect
// spurious violations (§2.2).
func TaggedVsUntagged(r *Runner, names []string) (*Table, error) {
	t := &Table{
		Title: "E11 (§2.2 ablation): tagged vs untagged MDT, baseline MDT/SFC ENF",
		Note: "An untagged MDT lets all addresses mapping to a set share one entry, so " +
			"aliasing produces spurious violations; a tagged MDT instead drops and " +
			"re-executes conflicting accesses.",
		Header: []string{"benchmark", "IPC tagged", "IPC untagged", "viols tagged", "viols untagged"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		tc := BaselineConfig(MDTSFCEnf, r.MaxInsts)
		uc := BaselineConfig(MDTSFCEnf, r.MaxInsts)
		uc.Name = "baseline/mdtsfc-untagged"
		uc.MDT.Tagged = false
		uc.MDT.Ways = 1
		rt := r.Run(tc, w)
		ru := r.Run(uc, w)
		if rt.Err != nil {
			return nil, rt.Err
		}
		if ru.Err != nil {
			return nil, ru.Err
		}
		vt := rt.Stats.TrueViolations + rt.Stats.AntiViolations + rt.Stats.OutputViolations
		vu := ru.Stats.TrueViolations + ru.Stats.AntiViolations + ru.Stats.OutputViolations
		t.AddRow(name, f3(rt.Stats.IPC()), f3(ru.Stats.IPC()),
			fmt.Sprintf("%d", vt), fmt.Sprintf("%d", vu))
	}
	return t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FlushEndpoints is the E12 extension: the paper's §3.2 proposal to replace
// corruption bits with explicit flush-endpoint tracking. It sweeps the
// number of tracked windows on the corruption-prone workloads.
func FlushEndpoints(r *Runner, names []string) (*Table, error) {
	t := &Table{
		Title: "E12 (§3.2 extension): corruption bits vs flush-endpoint tracking",
		Note: "The paper suggests the SFC could \"record the sequence numbers of the " +
			"earliest and latest instructions flushed\" instead of corrupting every " +
			"valid byte, and that performance \"would depend on the number of flush " +
			"endpoints tracked\". Columns give IPC (and corruption replays per load) " +
			"for the corruption-bit baseline and 1/2/4/8 tracked windows.",
		Header: []string{"benchmark", "corrupt-bits", "1 win", "2 win", "4 win", "8 win"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		row := []string{name}
		for _, n := range []int{0, 1, 2, 4, 8} {
			cfg := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
			cfg.Name = fmt.Sprintf("aggressive/mdtsfc-fw%d", n)
			cfg.SFC.FlushEndpoints = n
			res := r.Run(cfg, w)
			if res.Err != nil {
				return nil, res.Err
			}
			row = append(row, fmt.Sprintf("%s (%s)", f3(res.Stats.IPC()), pct1(res.Stats.LoadCorruptionRate())))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// WindowScaling is the E13 extension, quantifying the paper's conclusion
// that the CAM-free SFC and MDT "are ideally suited for checkpointed
// processors with large instruction windows": IPC as the window grows from
// 128 to 1024 entries, for the MDT/SFC against a fixed 120x80 LSQ.
func WindowScaling(r *Runner, names []string) (*Table, error) {
	windows := []int{128, 256, 512, 1024}
	t := &Table{
		Title: "E13 (conclusion): instruction-window scaling, MDT/SFC vs 120x80 LSQ",
		Note: "Each cell is IPC at the given ROB/scheduling-window size on the 8-wide " +
			"processor. The address-indexed structures keep scaling where the " +
			"fixed-size LSQ saturates.",
		Header: []string{"benchmark", "memsys", "W=128", "W=256", "W=512", "W=1024"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		for _, v := range []Variant{MDTSFCTotal, LSQ120x80} {
			row := []string{name, v.Label}
			for _, win := range windows {
				cfg := AggressiveConfig(v, r.MaxInsts)
				cfg.Name = fmt.Sprintf("aggressive/%s-w%d", v.Label, win)
				cfg.ROBSize = win
				res := r.Run(cfg, w)
				if res.Err != nil {
					return nil, res.Err
				}
				row = append(row, f3(res.Stats.IPC()))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// SearchWork is the E14 experiment: the simulation-level stand-in for the
// paper's dynamic-power argument (§1, §4). It counts the entries examined by
// each design's searches per retired memory instruction: the LSQ walks its
// occupancy-sized queues, while the SFC and MDT read a fixed two ways.
func SearchWork(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{
		AggressiveConfig(LSQ120x80, r.MaxInsts),
		AggressiveConfig(MDTSFCTotal, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E14 (§1/§4): associative-search work per memory instruction",
		Note: "Entries (LSQ) or ways (MDT+SFC) examined per retired load or store — " +
			"the activity that drives the LSQ's dynamic power and search latency. " +
			"The paper's motivation: LSQ searches scale with occupancy, " +
			"address-indexed lookups with associativity.",
		Header: []string{"benchmark", "LSQ entries/op", "MDT+SFC ways/op", "ratio"},
	}
	var ratios []float64
	for i, w := range ws {
		lsq := m[i][0].Stats.SearchWorkPerMemOp()
		sfc := m[i][1].Stats.SearchWorkPerMemOp()
		ratio := 0.0
		if sfc > 0 {
			ratio = lsq / sfc
		}
		ratios = append(ratios, ratio)
		t.AddRow(w.Name, fmt.Sprintf("%.1f", lsq), fmt.Sprintf("%.1f", sfc), fmt.Sprintf("%.1fx", ratio))
	}
	t.AddRow("geomean", "", "", fmt.Sprintf("%.1fx", geomean(ratios)))
	return t, nil
}

// ValueReplayComparison is the E15 experiment, quantifying the paper's §4
// argument against retirement-time disambiguation: "the delay greatly
// increases the penalty for ordering violations ... in such processors,
// disambiguating memory references at completion is preferable." It runs
// the Cain & Lipasti value-based replay scheme (no load queue; every load
// re-reads the cache at retirement) against the MDT/SFC on the aggressive
// processor.
func ValueReplayComparison(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{
		AggressiveConfig(MDTSFCTotal, r.MaxInsts),
		AggressiveConfig(ValueReplay120x80, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E15 (§4): completion-time (MDT/SFC) vs retirement-time (value replay) disambiguation",
		Note: "Value replay re-executes every load at retirement and flushes from the " +
			"load on a mismatch — maximally late detection, with no dependence " +
			"predictor trainable (the offending store is never identified). Columns: " +
			"IPC, and ordering-violation flushes per 1000 retired instructions.",
		Header: []string{"benchmark", "MDT/SFC IPC", "value-replay IPC", "ratio", "MDT/SFC viol/k", "replay viol/k"},
	}
	ratios := make([]float64, len(ws))
	for i, w := range ws {
		sm, sv := m[i][0].Stats, m[i][1].Stats
		ratios[i] = sv.IPC() / sm.IPC()
		violM := 1000 * float64(sm.TrueViolations+sm.AntiViolations+sm.OutputViolations) / float64(sm.Retired)
		violV := 1000 * float64(sv.TrueViolations) / float64(sv.Retired)
		t.AddRow(w.Name, f3(sm.IPC()), f3(sv.IPC()), f3(ratios[i]),
			fmt.Sprintf("%.2f", violM), fmt.Sprintf("%.2f", violV))
	}
	classAverages(t, ws, [][]float64{ratios}, f3)
	for i := len(t.Rows) - 2; i < len(t.Rows); i++ {
		t.Rows[i] = []string{t.Rows[i][0], "", "", t.Rows[i][1], "", ""}
	}
	return t, nil
}

// MultiVersion is the E16 experiment: the §4 multiversion alternative. A
// multi-version SFC renames in-flight stores, so anti and output violations
// cannot occur, the corruption machinery disappears, and the dependence
// predictor only needs true dependences — "reducing the number of false
// dependences detected by the system at the cost of a more complex
// implementation". Costs appear as version storage and per-access version
// searches.
func MultiVersion(r *Runner) (*Table, error) {
	ws := aggressiveWorkloads()
	cfgs := []pipeline.Config{
		AggressiveConfig(MDTSFCTotal, r.MaxInsts),
		AggressiveConfig(MVSFC, r.MaxInsts),
	}
	m, err := r.RunMatrix(ws, cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "E16 (§4): single-version SFC + ENF vs multi-version SFC (renaming)",
		Note: "The multi-version SFC holds up to 4 versions per word. Columns: IPC; " +
			"anti+output violation flushes (impossible under renaming); loads " +
			"replayed on SFC corruption (the mechanism disappears entirely under " +
			"renaming, which deletes canceled versions exactly).",
		Header: []string{"benchmark", "SFC+ENF IPC", "MVSFC IPC", "ratio", "a+o viols (SFC)", "corrupt rpl (SFC)", "corrupt rpl (MV)"},
	}
	ratios := make([]float64, len(ws))
	for i, w := range ws {
		s1, s2 := m[i][0].Stats, m[i][1].Stats
		ratios[i] = s2.IPC() / s1.IPC()
		t.AddRow(w.Name, f3(s1.IPC()), f3(s2.IPC()), f3(ratios[i]),
			fmt.Sprintf("%d", s1.AntiViolations+s1.OutputViolations),
			fmt.Sprintf("%d", s1.ReplayCorrupt), fmt.Sprintf("%d", s2.ReplayCorrupt))
	}
	classAverages(t, ws, [][]float64{ratios}, f3)
	for i := len(t.Rows) - 2; i < len(t.Rows); i++ {
		t.Rows[i] = []string{t.Rows[i][0], "", "", t.Rows[i][1], "", "", ""}
	}
	return t, nil
}

// StructureScaling is the E17 experiment, probing the paper's efficiency
// claim from the other side: how small can the address-indexed structures
// get? It sweeps the SFC and MDT set counts (2-way throughout) on the
// aggressive processor and reports IPC with the conflict-replay rates that
// explain it.
func StructureScaling(r *Runner, names []string) (*Table, error) {
	type geom struct {
		label   string
		sfcSets int
		mdtSets int
	}
	geoms := []geom{
		{"1/8 size", 64, 1 << 10},
		{"1/4 size", 128, 2 << 10},
		{"1/2 size", 256, 4 << 10},
		{"paper", 512, 8 << 10},
		{"2x size", 1024, 16 << 10},
	}
	t := &Table{
		Title: "E17 (scalability): SFC/MDT size sweep, aggressive MDT/SFC ENF",
		Note: "Cells: IPC (SFC-conflict replays per store / MDT-conflict replays per " +
			"load). The paper's geometry is 512-set SFC, 8K-set MDT, both 2-way.",
		Header: []string{"benchmark", "1/8 size", "1/4 size", "1/2 size", "paper", "2x size"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		row := []string{name}
		for _, g := range geoms {
			cfg := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
			cfg.Name = fmt.Sprintf("aggressive/mdtsfc-%s", g.label)
			cfg.SFC.Sets = g.sfcSets
			cfg.MDT.Sets = g.mdtSets
			res := r.Run(cfg, w)
			if res.Err != nil {
				return nil, res.Err
			}
			row = append(row, fmt.Sprintf("%s (%s/%s)", f3(res.Stats.IPC()),
				pct1(res.Stats.StoreSFCConflictRate()), pct1(res.Stats.LoadMDTConflictRate())))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// SearchFilter is the E18 experiment: §4's suggestion that "search filtering
// could dramatically decrease the pressure on the MDT, thereby offering
// higher performance from a much smaller MDT", realized with a
// store-vulnerability-window test (a load older than every unexecuted store
// cannot be a true-violation victim and skips MDT allocation). It compares
// a 1/8-size MDT with and without the filter on the MDT-pressure pathology.
func SearchFilter(r *Runner, names []string) (*Table, error) {
	t := &Table{
		Title: "E18 (§4): store-vulnerability-window search filtering, 1/8-size MDT",
		Note: "Cells: IPC, MDT-conflict replays per load, and filter exemptions per " +
			"retired load (replayed attempts count, so the rate can exceed 100%). " +
			"The full-size column is the unfiltered paper geometry for reference.",
		Header: []string{"benchmark", "full MDT", "small MDT", "small+filter", "confl small", "confl small+filter", "filtered loads"},
	}
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		full := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
		small := AggressiveConfig(MDTSFCTotal, r.MaxInsts)
		small.Name = "aggressive/mdtsfc-smallmdt"
		small.MDT.Sets = small.MDT.Sets / 8
		filt := small
		filt.Name = "aggressive/mdtsfc-smallmdt-svw"
		filt.SVWFilter = true
		rf := r.Run(full, w)
		rs := r.Run(small, w)
		rz := r.Run(filt, w)
		for _, res := range []Result{rf, rs, rz} {
			if res.Err != nil {
				return nil, res.Err
			}
		}
		filteredFrac := 0.0
		if rz.Stats.RetiredLoads > 0 {
			filteredFrac = float64(rz.Stats.SVWFiltered) / float64(rz.Stats.RetiredLoads)
		}
		t.AddRow(name, f3(rf.Stats.IPC()), f3(rs.Stats.IPC()), f3(rz.Stats.IPC()),
			pct(rs.Stats.LoadMDTConflictRate()), pct(rz.Stats.LoadMDTConflictRate()), pct1(filteredFrac))
	}
	return t, nil
}

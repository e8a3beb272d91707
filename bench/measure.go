package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"sfcmdt/internal/harness"
	simmetrics "sfcmdt/internal/metrics"
)

const (
	// setupReps is how many times set-up runs from scratch, back to back
	// between one pair of calibration runs; setup_s is the median.
	setupReps = 7
	// minOps is the fewest timed ops an untraced run makes, and minTraced
	// the fewest of each kind a traced run makes.
	minOps    = 3
	minTraced = 2
	// goldenFile is the Figure 5 table at goldenInsts per run that the
	// simulator must reproduce byte for byte.
	goldenFile  = "sim/testdata/figure5_seed.golden"
	goldenInsts = 5000
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome: the object the run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opRecord is one op as measured.
type opRecord struct {
	seq    int
	traced bool
	wall   time.Duration
	scale  float64 // calibration factor: wall × scale reads as on the reference host
	peakMB float64 // peak RSS during the op
	out    opOut
	rt     runtimeDelta
}

// throughputWall is the op's wall time for its throughput: the load phase
// alone when the op reports one.
func (o opRecord) throughputWall() time.Duration {
	if o.out.wall > 0 {
		return o.out.wall
	}
	return o.wall
}

// measurement is everything a run of one workload collected.
type measurement struct {
	name       string
	setupS     []float64  // calibrated set-up times
	setupScale float64    // the calibration factor of the set-ups
	ops        []opRecord // the warm-up op first
	tr         *tracer
	problems   []string
}

// measureWorkload sets the workload up setupReps times, runs one untimed
// warm-up op, then runs ops until seconds have passed: untraced ops only,
// or, when traced, untraced and traced ops alternately. Every op's outputs
// are checked. Each set-up and each op starts from a collected heap, as a
// fresh process would; each op, and the set-ups together, are bracketed by
// calibration runs.
func measureWorkload(name string, seed uint64, seconds int, traced bool) (*measurement, error) {
	if err := initCalibration(); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	want, err := loadDigests()
	if err != nil {
		return nil, err
	}
	ms := &measurement{name: name}
	if traced {
		ms.tr = newTracer(name)
	}

	ms.tr.setOp(-1)
	goldenOK := true
	var walls []time.Duration
	_, scale := bracket(func() {
		for i := 0; i < setupReps && err == nil; i++ {
			runtime.GC()
			root := ms.tr.begin("setup", -1, -1)
			t0 := time.Now()
			var golden bool
			golden, err = goldenMatches()
			if err == nil {
				err = w.setup(ms.tr, root.id)
			}
			walls = append(walls, time.Since(t0))
			root.end()
			goldenOK = goldenOK && golden
		}
	})
	if err != nil {
		return nil, err
	}
	for _, d := range walls {
		ms.setupS = append(ms.setupS, d.Seconds()*scale)
	}
	ms.setupScale = scale
	if !goldenOK {
		ms.problems = append(ms.problems, "Figure 5 at 5000 insts differs from "+goldenFile)
	}

	seen := make(map[string]string) // digest key → first digest of the run
	do := func(seq int, tracedOp bool) error {
		var tr *tracer
		if tracedOp {
			tr = ms.tr
			tr.setOp(seq)
		}
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		var out opOut
		var opErr error
		var rt runtimeDelta
		wall, scale := bracket(func() {
			before := readRuntime()
			out, opErr = w.op(seq, tr)
			rt = readRuntime().since(before)
		})
		peak := peakRSSMB()
		if out.cleanup != nil {
			out.cleanup()
		}
		if opErr != nil {
			return opErr
		}
		if k := out.digestKey; k != "" {
			if d, ok := want[name][k]; ok && d != out.digest {
				out.fail("output digest %.12s, want %.12s (%s)", out.digest, d, digestFile)
			} else if first, ok := seen[k]; ok && first != out.digest {
				out.fail("output digest %.12s differs from the run's first, %.12s", out.digest, first)
			}
			seen[k] = out.digest
		}
		ms.ops = append(ms.ops, opRecord{seq: seq, traced: tracedOp, wall: wall, scale: scale, peakMB: peak, out: out, rt: rt})
		kind := "untraced"
		if tracedOp {
			kind = "traced"
		}
		fmt.Fprintf(os.Stderr, "%s: op %d (%s): %.1f ms wall, calibration %.3f, peak RSS %.0f MB\n",
			name, seq, kind, float64(wall.Nanoseconds())/1e6, scale, peak)
		return nil
	}

	if err := do(0, false); err != nil {
		return nil, err
	}
	start := time.Now()
	for seq := 1; ; seq++ {
		untraced, tracedOps := ms.count(false), ms.count(true)
		enough := time.Since(start) >= time.Duration(seconds)*time.Second
		if traced {
			enough = enough && untraced >= minTraced && tracedOps >= minTraced
		} else {
			enough = enough && untraced >= minOps
		}
		if enough {
			break
		}
		if err := do(seq, traced && seq%2 == 0); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// count returns the number of timed ops (the warm-up excluded) of a kind.
func (ms *measurement) count(traced bool) int {
	return len(ms.timed(traced))
}

// timed returns the timed ops of a kind.
func (ms *measurement) timed(traced bool) []opRecord {
	var out []opRecord
	for _, o := range ms.ops {
		if o.seq > 0 && o.traced == traced {
			out = append(out, o)
		}
	}
	return out
}

// result assembles the run's printed result with the values of the given
// metrics; it fails if a listed metric has no value.
func (ms *measurement) result(specs []metricSpec, values map[string]float64) (result, error) {
	r := result{Metrics: make(map[string]metricValue)}
	for _, o := range ms.ops {
		r.Attempted += o.out.attempted
		r.Failed += o.out.failed
	}
	r.Correct = r.Failed == 0 && len(ms.problems) == 0
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return r, fmt.Errorf("%s: no value for metric %q", ms.name, s.Name)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return r, nil
}

// samples returns the calibrated latency samples of ops, in ms: each op's
// own samples, or its wall time when it has none.
func samples(ops []opRecord) []float64 {
	var xs []float64
	for _, o := range ops {
		if o.out.samples == nil {
			xs = append(xs, float64(o.wall.Nanoseconds())/1e6*o.scale)
		}
		for _, x := range o.out.samples {
			xs = append(xs, x*o.scale)
		}
	}
	return xs
}

// endToEnd computes the end-to-end metrics from the untraced timed ops.
// Every time is calibrated. Throughput pools all ops, so ops of unequal
// content (serve-mix sessions) weigh by their length. Peak RSS is the first
// quartile of the ops' peaks: a collector that falls behind under host
// contention only ever adds to an op's peak.
func (ms *measurement) endToEnd() map[string]float64 {
	ops := ms.timed(false)
	var insts, us float64
	var peaks []float64
	for _, o := range ops {
		insts += float64(o.out.insts)
		us += float64(o.throughputWall().Nanoseconds()) / 1e3 * o.scale
		peaks = append(peaks, o.peakMB)
	}
	q1, _, _ := quartiles(peaks)
	return map[string]float64{
		"setup_s":     median(ms.setupS),
		"op_ms":       median(samples(ops)),
		"sim_mips":    ratio(insts, us),
		"peak_rss_mb": q1,
	}
}

// perLayer computes the per-layer metrics: medians over the traced ops of
// each op's layer values, the Go runtime's costs from the untraced ops, and
// the tracing overhead between the two.
func (ms *measurement) perLayer() map[string]float64 {
	traced := ms.timed(true)
	per := make(map[string][]float64)
	for _, o := range traced {
		for k, v := range opLayer(ms.tr.opSpans(o.seq), o.out, o.scale) {
			per[k] = append(per[k], v)
		}
	}
	out := make(map[string]float64)
	for k, vs := range per {
		out[k] = median(vs)
	}
	if _, ok := out["workload.build_ms"]; !ok {
		out["workload.build_ms"] = ms.setupBuildMS()
	}
	untraced := ms.timed(false)
	var alloc, gcs, gcCPU []float64
	for _, o := range untraced {
		alloc = append(alloc, o.rt.allocMB)
		gcs = append(gcs, o.rt.gcCycles)
		gcCPU = append(gcCPU, ratio(o.rt.gcCPU, o.rt.totalCPU))
	}
	out["go.alloc_mb_per_op"] = median(alloc)
	out["go.gc_cycles_per_op"] = median(gcs)
	out["go.gc_cpu_frac"] = median(gcCPU)
	out["trace.overhead_pct"] = 100 * (ratio(median(samples(traced)), median(samples(untraced))) - 1)
	return out
}

// setupBuildMS is the median, over set-up repetitions, of the calibrated
// time spent building workload images.
func (ms *measurement) setupBuildMS() float64 {
	perRep := make(map[int]float64) // setup root → build ms
	for _, s := range ms.tr.opSpans(-1) {
		if s.Name == "workload.build" {
			perRep[s.Parent] += float64(s.dur().Nanoseconds()) / 1e6 * ms.setupScale
		}
	}
	var xs []float64
	for _, v := range perRep {
		xs = append(xs, v)
	}
	return median(xs)
}

// workloadSpecific are the per-layer values only some workloads' ops set;
// the others report 0, a count or share of a layer they do not use.
var workloadSpecific = []string{
	"service.cache_hit_ratio", "service.executed", "service.coalesced",
	"service.bad_requests", "service.backend_pct", "service.queue_http_pct", "service.p99_over_p50",
	"service.hit_load_ratio", "http.hit_overhead_pct",
	"replay.store_hits", "replay.materialized", "sample.restored", "snapshot.bytes",
	"frontend.overhead_pct",
}

// opLayer computes one traced op's per-layer values from its spans and its
// outputs. Shares are of the op's lane time: its wall time times the number
// of benchmark goroutines driving it. Host times and rates are calibrated by
// the op's scale.
func opLayer(spans []span, out opOut, scale float64) map[string]float64 {
	m := make(map[string]float64)
	for _, k := range workloadSpecific {
		m[k] = 0
	}
	for k, v := range out.layer {
		m[k] = v
	}
	for k, v := range simCounts(out.cells) {
		m[k] = v
	}
	for k, v := range pipelineCost(out.work) {
		m[k] = v
	}
	m["pipeline.ns_per_cycle"] *= scale

	tree, ok := opTree(spans)
	if !ok {
		return m
	}
	root := tree[0]
	self := selfTimes(tree)
	laneNS := float64(root.dur().Nanoseconds()) * float64(out.lanes)
	pct := func(names ...string) float64 {
		var ns float64
		for _, n := range names {
			ns += float64(self[n].Nanoseconds())
		}
		return 100 * ratio(ns, laneNS)
	}
	m["replay.materialize_pct"] = pct("replay.materialize")
	m["replay.store_pct"] = pct("replay.store_get", "replay.store_put")
	m["pipeline.reset_pct"] = pct("pipeline.reset")
	m["pipeline.run_pct"] = pct("pipeline.run")
	m["sample.prepare_pct"] = pct("sample.prepare")
	m["sample.run_pct"] = pct("sample.run")
	m["snapshot.get_pct"] = pct("snapshot.get")
	m["snapshot.put_pct"] = pct("snapshot.put")
	if b := self["workload.build"]; b > 0 {
		m["workload.build_ms"] = float64(b.Nanoseconds()) / 1e6 * scale
	}
	// The reconciliation gap: op wall time during which no layer call was
	// in progress. Idle lanes while another lane works are not in it; they
	// show as parallel efficiency below 1.
	selfOf := spanSelf(tree)
	m["harness.self_pct"] = 100 * ratio(float64(selfOf[0].Nanoseconds()), float64(root.dur().Nanoseconds()))
	m["harness.parallel_eff"] = ratio(topLevelNS(tree), laneNS)

	// Throughput of the functional passes: instructions per µs of self time.
	rate := func(name string) float64 {
		var insts, ns float64
		for i, s := range tree {
			if s.Name == name && s.Insts > 0 {
				insts += float64(s.Insts)
				ns += float64(selfOf[i].Nanoseconds())
			}
		}
		return ratio(insts, ns/1e3*scale)
	}
	m["replay.materialize_mips"] = rate("replay.materialize")
	m["sample.prepare_mips"] = rate("sample.prepare")
	return m
}

// topLevelNS sums the spans the benchmark's lanes opened directly under the
// op's root (tree[0]); the rest of the lane time is the harness's own.
func topLevelNS(tree []span) float64 {
	var ns float64
	for _, s := range tree[1:] {
		if s.Parent == tree[0].ID && s.Lane >= 0 {
			ns += float64(s.dur().Nanoseconds())
		}
	}
	return ns
}

// simCounts sums the simulated machine's counters over an op's runs. A
// change that only speeds the simulator up leaves every one unchanged.
func simCounts(cells []cell) map[string]float64 {
	var t simmetrics.Stats
	for i := range cells {
		t.Merge(&cells[i].Stats)
	}
	return map[string]float64{
		"pipeline.cycles":           float64(t.Cycles),
		"pipeline.elided_frac":      ratio(float64(t.CyclesElided), float64(t.Cycles)),
		"core.sfc_forwards":         float64(t.SFCForwards),
		"core.sfc_conflict_replays": float64(t.ReplaySFCConflict),
		"core.mdt_conflict_replays": float64(t.ReplayMDTConflict),
		"core.corrupt_replays":      float64(t.ReplayCorrupt),
		"core.violations":           float64(t.TrueViolations + t.AntiViolations + t.OutputViolations),
		"core.search_entries":       float64(t.SearchEntriesLSQ + t.SearchEntriesMDT + t.SearchEntriesSFC),
		"core.preprobe_hit_rate":    t.PreprobeHitRate(),
		"mem.l1d_miss_rate":         t.L1DDemandMissRate(),
		"mem.l2_misses":             float64(t.L2Misses),
		"bpred.mispredict_rate":     t.MispredictRate(),
		"prefetch.issued":           float64(t.PrefetchIssued),
		"prefetch.accuracy":         t.PrefetchAccuracy(),
	}
}

// subsystem names the memory subsystem of a configuration name such as
// "baseline/mdtsfc-enf+tage": "lsq" for every LSQ size, else the
// subsystem-and-predictor label.
func subsystem(config string) string {
	label := config[strings.Index(config, "/")+1:]
	label, _, _ = strings.Cut(label, "+")
	if strings.HasPrefix(label, "lsq") {
		return "lsq"
	}
	return label
}

// nsPerCycle is the host ns per simulated cycle of the work units kept.
func nsPerCycle(work []workUnit, keep func(workUnit) bool) float64 {
	var ns float64
	var cycles uint64
	for _, u := range work {
		if keep(u) {
			ns += u.ns
			cycles += u.cycles
		}
	}
	return ratio(ns, float64(cycles))
}

// pipelineCost turns host time spent simulating into ns per simulated
// cycle, overall and, relative to overall, per memory subsystem.
func pipelineCost(work []workUnit) map[string]float64 {
	all := nsPerCycle(work, func(workUnit) bool { return true })
	m := map[string]float64{"pipeline.ns_per_cycle": all}
	for _, sub := range []string{"lsq", "mdtsfc-enf", "mdtsfc-not-enf"} {
		m["pipeline.rel_ns_per_cycle."+sub] = ratio(nsPerCycle(work, func(u workUnit) bool { return subsystem(u.config) == sub }), all)
	}
	return m
}

// goldenMatches reports whether Figure 5 at goldenInsts reproduces the
// committed golden table byte for byte.
func goldenMatches() (bool, error) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		return false, fmt.Errorf("reading golden: %w", err)
	}
	tab, err := harness.Figure5(harness.NewRunner(goldenInsts))
	if err != nil {
		return false, nil
	}
	var got bytes.Buffer
	tab.Fprint(&got)
	return bytes.Equal(got.Bytes(), want), nil
}

// runtimeDelta is what the Go runtime spent during one op. Allocation and
// collection counts are exact. The CPU figures cover the op up to its last
// collection, since the runtime updates them only at collections.
type runtimeDelta struct {
	allocMB, gcCycles, gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeDelta {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeDelta{
		allocMB:  num(s[0].Value) / 1e6,
		gcCycles: num(s[1].Value),
		gcCPU:    num(s[2].Value),
		totalCPU: num(s[3].Value),
	}
}

func (d runtimeDelta) since(b runtimeDelta) runtimeDelta {
	return runtimeDelta{d.allocMB - b.allocMB, d.gcCycles - b.gcCycles, d.gcCPU - b.gcCPU, d.totalCPU - b.totalCPU}
}

// layerTable prints, per layer, the median over traced ops of its
// calibrated self time and of its share of the op's lane time (wall time ×
// lanes), then the lanes' idle share and the reconciliation gap — op wall
// time in no layer call.
func (ms *measurement) layerTable(w io.Writer) {
	traced := ms.timed(true)
	selfMS := make(map[string][]float64)
	share := make(map[string][]float64)
	var walls, gaps, idle []float64
	for _, o := range traced {
		tree, ok := opTree(ms.tr.opSpans(o.seq))
		if !ok {
			continue
		}
		wall := float64(tree[0].dur().Nanoseconds())
		laneNS := wall * float64(o.out.lanes)
		walls = append(walls, wall/1e6*o.scale)
		gaps = append(gaps, 100*ratio(float64(spanSelf(tree)[0].Nanoseconds()), wall))
		idle = append(idle, 100*(1-ratio(topLevelNS(tree), laneNS)))
		for name, d := range selfTimes(tree[1:]) {
			selfMS[name] = append(selfMS[name], float64(d.Nanoseconds())/1e6*o.scale)
			share[name] = append(share[name], 100*ratio(float64(d.Nanoseconds()), laneNS))
		}
	}
	names := make([]string, 0, len(selfMS))
	for n := range selfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: self time per traced op (median of %d ops, op wall %.1f ms)\n", ms.name, len(traced), median(walls))
	fmt.Fprintf(w, "  %-22s %12s %10s\n", "layer", "self ms", "lane %")
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %12.3f %10.2f\n", n, median(selfMS[n]), median(share[n]))
	}
	fmt.Fprintf(w, "  %-22s %23.2f\n", "idle lanes", median(idle))
	fmt.Fprintf(w, "  reconciliation gap: %.2f%% of op wall outside every layer call\n", median(gaps))
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"sfcmdt/internal/replay"
	"sfcmdt/internal/sample"
	"sfcmdt/internal/service"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// serve-mix drives the serving layer as its users do: two closed-loop
// clients, each sending its next request only once the previous reply is
// read, against service.New{Workers: 2} behind net/http on a loopback port.
// Each session (op) is a fresh service over stream and checkpoint stores
// that set-up filled, as a restart with a warm -replay-dir is.
const (
	sessionRequests = 2000
	hotKeys         = 40
	sweepInsts      = 20_000
	probeRequests   = 200
)

// The point space of serve-mix requests.
var (
	serveMems    = []string{"mdtsfc", "lsq", "value-replay", "mvsfc"}
	serveConfigs = []string{"baseline", "aggressive"}
	serveBPreds  = []string{"gshare", "tage"}
	serveInsts   = []uint64{20_000, 50_000, 100_000}
	serveSampled = []string{"gzip", "mcf", "art", "vortex"}
	servePlan    = service.SamplingSpec{FF: 50_000, Warm: 1000, Measure: 4000, Intervals: 4}
	// badBodies are invalid /v1/run requests; each must get a 400.
	badBodies = []string{
		`{"workload":"no-such-workload"}`,
		`{"workload":"gzip","mem":"cam"}`,
		`{"workload":"gzip","insts":500000}`,
		`{"workload":"gzip","bogus":1}`,
		`{"workload":`,
		`{"workload":"gzip","insts":1000,"sampling":{"measure":1000,"intervals":1}}`,
	}
)

// serveWorkloads are the 20 figure workloads and the three stall workloads.
func serveWorkloads() []string {
	return append(workload.Names(), "histdep", "ptrchase", "strided")
}

type reqKind int

const (
	runReq reqKind = iota
	sweepReq
	badReq
)

type genReq struct {
	kind     reqKind
	workload string // the workload a valid request names
	body     []byte
}

func (g genReq) path() string {
	if g.kind == sweepReq {
		return "/v1/sweep"
	}
	return "/v1/run"
}

// hotSet returns the popular /v1/run points. It depends only on the seed, so
// every session of a run — every restart of the server — sees the same
// popular keys.
func hotSet(seed uint64) []service.RunRequest {
	r := rand.New(rand.NewPCG(seed, 0))
	hot := make([]service.RunRequest, hotKeys)
	for i := range hot {
		hot[i] = randomPoint(r)
	}
	return hot
}

func randomPoint(r *rand.Rand) service.RunRequest {
	names := serveWorkloads()
	return service.RunRequest{
		Workload: names[r.IntN(len(names))],
		Config:   serveConfigs[r.IntN(len(serveConfigs))],
		Mem:      serveMems[r.IntN(len(serveMems))],
		BPred:    serveBPreds[r.IntN(len(serveBPreds))],
		Insts:    serveInsts[r.IntN(len(serveInsts))],
	}
}

// session returns the n requests of one session; seq 0 is the untimed
// warm-up. The mix: 75% /v1/run repeats of the hot set, 18% fresh /v1/run
// points, 3% six-point /v1/sweep grids, 2% sampled /v1/run, 2% invalid. No
// record of real traffic exists to draw it from; bench/README.md gives the
// layer each share is there to exercise.
func session(seed uint64, seq, n int) []genReq {
	hot := hotSet(seed)
	names := serveWorkloads()
	r := rand.New(rand.NewPCG(seed, uint64(seq)+1))
	reqs := make([]genReq, n)
	for i := range reqs {
		var v any
		var g genReq
		switch u := r.IntN(100); {
		case u < 75:
			rq := hot[r.IntN(len(hot))]
			v, g = rq, genReq{kind: runReq, workload: rq.Workload}
		case u < 93:
			rq := randomPoint(r)
			v, g = rq, genReq{kind: runReq, workload: rq.Workload}
		case u < 96:
			w := names[r.IntN(len(names))]
			var mems []string
			for _, k := range r.Perm(len(serveMems))[:3] {
				mems = append(mems, serveMems[k])
			}
			v = service.SweepRequest{Workloads: []string{w}, Mems: mems, BPreds: serveBPreds, Insts: sweepInsts, Stats: true}
			g = genReq{kind: sweepReq, workload: w}
		case u < 98:
			sp := servePlan
			rq := service.RunRequest{
				Workload: serveSampled[r.IntN(len(serveSampled))],
				Mem:      []string{"mdtsfc", "lsq"}[r.IntN(2)],
				Sampling: &sp,
			}
			v, g = rq, genReq{kind: runReq, workload: rq.Workload}
		default:
			reqs[i] = genReq{kind: badReq, body: []byte(badBodies[r.IntN(len(badBodies))])}
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain request structs always marshal
		}
		g.body = b
		reqs[i] = g
	}
	return reqs
}

type serveMix struct {
	seed uint64
	dir  string // the stores the last set-up filled
	// known maps each response's identity to its canonical JSON, across the
	// run's sessions: a cached or repeated response must equal the first.
	known map[string]string
}

func newServeMix(seed uint64) *serveMix {
	return &serveMix{seed: seed, known: make(map[string]string)}
}

// setup fills a stream store with every (workload, budget) stream the
// sessions ask for and a checkpoint store with the sampled plan's interval
// checkpoints, exactly as an earlier server process would have left them.
func (m *serveMix) setup(tr *tracer, parent int) error {
	dir, err := os.MkdirTemp("", "serve-mix-*")
	if err != nil {
		return fmt.Errorf("serve-mix: %w", err)
	}
	if err := fillStores(dir, tr, parent); err != nil {
		os.RemoveAll(dir)
		return err
	}
	if m.dir != "" {
		os.RemoveAll(m.dir)
	}
	m.dir = dir
	return nil
}

func fillStores(dir string, tr *tracer, parent int) error {
	streams, err := replay.NewDiskStore(filepath.Join(dir, "streams"))
	if err != nil {
		return err
	}
	ckpts, err := snapshot.NewDiskStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return err
	}
	cache := replay.NewCache(streams)
	plan := sample.Plan{FastForward: servePlan.FF, Warm: servePlan.Warm, Measure: servePlan.Measure, Intervals: servePlan.Intervals}
	for _, name := range serveWorkloads() {
		w, ok := workload.Get(name)
		if !ok {
			return fmt.Errorf("serve-mix: workload %q is not registered", name)
		}
		s := tr.begin("workload.build", parent, 0)
		img := w.Build()
		s.end()
		for _, n := range serveInsts {
			s := tr.begin("replay.materialize", parent, 0)
			_, err := cache.Source(img, "", n, nil)
			s.endWork("", n, 0)
			if err != nil {
				return fmt.Errorf("serve-mix: %s: %w", name, err)
			}
		}
		if slices.Contains(serveSampled, name) {
			s := tr.begin("sample.prepare", parent, 0)
			_, err := sample.Prepare(img, plan, ckpts, "")
			s.end()
			if err != nil {
				return fmt.Errorf("serve-mix: %s: %w", name, err)
			}
		}
	}
	return nil
}

func (m *serveMix) close() error {
	if m.dir == "" {
		return nil
	}
	return os.RemoveAll(m.dir)
}

// reply is what a client saw for one request.
type reply struct {
	ms      float64 // from sending the request to reading the whole reply
	status  int
	results []*service.Result
	summary *service.SweepSummary
	err     error
}

func (m *serveMix) op(seq int, tr *tracer) (opOut, error) {
	reqs := session(m.seed, seq, sessionRequests)
	out := opOut{attempted: len(reqs), lanes: 2}
	if seq == 0 {
		out.digestKey = strconv.FormatUint(m.seed, 10)
	}
	sds, err := replay.NewDiskStore(filepath.Join(m.dir, "streams"))
	if err != nil {
		return out, fmt.Errorf("serve-mix: %w", err)
	}
	cds, err := snapshot.NewDiskStore(filepath.Join(m.dir, "checkpoints"))
	if err != nil {
		return out, fmt.Errorf("serve-mix: %w", err)
	}
	streams, ckpts := newStreamProbe(sds, tr), newSnapshotProbe(cds, tr)
	svc := service.New(service.Config{Workers: 2, Checkpoints: ckpts, Streams: streams})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return out, fmt.Errorf("serve-mix: %w", err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
		svc.Close(ctx)
		transport.CloseIdleConnections()
	}()

	root := tr.begin("op", -1, -1)
	streams.parent.Store(int64(root.id))
	ckpts.parent.Store(int64(root.id))
	replies := make([]reply, len(reqs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(reqs); i += 2 {
				s := tr.begin("http"+reqs[i].path(), root.id, lane)
				replies[i] = send(client, base, reqs[i])
				s.end()
			}
		}(lane)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	root.end()

	loadedHitUS := m.check(&out, reqs, replies, svc.Stats())
	if p := streams.puts.Load() + ckpts.puts.Load(); p != 0 {
		out.fail("session wrote %d blobs to the pre-filled stores", p)
	}
	if tr != nil {
		doUS, idleHitUS, err := hitProbes(svc, client, base, reqs, replies, tr)
		if err != nil {
			out.fail("hit probes: %v", err)
		} else if idleHitUS > 0 {
			out.layer["http.hit_overhead_pct"] = 100 * (idleHitUS - doUS) / idleHitUS
			out.layer["service.hit_load_ratio"] = loadedHitUS / idleHitUS
		}
	}
	return out, nil
}

func send(client *http.Client, base string, rq genReq) reply {
	t0 := time.Now()
	resp, err := client.Post(base+rq.path(), "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{ms: float64(time.Since(t0).Nanoseconds()) / 1e6, status: resp.StatusCode, err: err}
	if err != nil || resp.StatusCode != http.StatusOK {
		return rep
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
			return rep
		} else if err != nil {
			rep.err = fmt.Errorf("decoding reply: %w", err)
			return rep
		}
		var done struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(raw, &done); err == nil && done.Done {
			rep.summary = new(service.SweepSummary)
			rep.err = json.Unmarshal(raw, rep.summary)
		} else {
			res := new(service.Result)
			rep.err = json.Unmarshal(raw, res)
			rep.results = append(rep.results, res)
		}
		if rep.err != nil {
			return rep
		}
	}
}

// identity names a result by what was simulated: the same identity must
// always carry the same canonical result.
func identity(res *service.Result) string {
	id := fmt.Sprintf("%s|%s|%d", res.Workload, res.Config, res.Insts)
	if res.Sampling != nil {
		id += fmt.Sprintf("|%+v", res.Sampling.Plan)
	}
	return id
}

// check validates every reply of a session and fills the op's samples,
// counts and digest: valid requests must succeed, invalid ones must get 400,
// a sweep must return all its points, and every result must equal every
// other serving of the same identity in the run. It returns the median
// latency of a cache hit under load, in µs.
func (m *serveMix) check(out *opOut, reqs []genReq, replies []reply, st service.Snapshot) float64 {
	var (
		canon                      = make(map[string]string) // identity → canonical JSON
		cells                      = make(map[string]cell)
		bad, runs, cached          int
		backendMS, missMS, queueMS float64
		hitMS                      []float64
	)
	accept := func(i int, res *service.Result, want string) bool {
		if res.Err != "" || res.Stats == nil || res.Workload != want {
			out.fail("request %d: result %q for workload %q (error %q)", i, res.Workload, want, res.Err)
			return false
		}
		b, _ := json.Marshal(res.Canonical()) // a decoded Result always marshals
		id := identity(res)
		if prev, ok := m.known[id]; ok && prev != string(b) {
			out.fail("request %d: %s differs from its earlier serving", i, id)
			return false
		}
		m.known[id], canon[id] = string(b), string(b)
		cells[id] = cell{res.Workload, res.Config, *res.Stats}
		out.insts += res.Insts
		if !res.Cached && !res.Coalesced {
			backendMS += res.ElapsedMS
			if res.Sampling == nil {
				out.work = append(out.work, workUnit{res.Config, res.ElapsedMS * 1e6, res.Cycles})
			}
		}
		return true
	}
	for i, rq := range reqs {
		rep := replies[i]
		switch {
		case rep.err != nil:
			out.fail("request %d: %v", i, rep.err)
		case rq.kind == badReq:
			if rep.status != http.StatusBadRequest {
				out.fail("invalid request %d: status %d, want 400", i, rep.status)
			} else {
				bad++
			}
		case rep.status != http.StatusOK:
			out.fail("request %d: status %d", i, rep.status)
		case rq.kind == runReq:
			if len(rep.results) != 1 {
				out.fail("request %d: %d results", i, len(rep.results))
				continue
			}
			res := rep.results[0]
			if !accept(i, res, rq.workload) {
				continue
			}
			runs++
			out.samples = append(out.samples, rep.ms)
			switch {
			case res.Cached:
				cached++
				hitMS = append(hitMS, rep.ms)
			case !res.Coalesced:
				missMS += rep.ms
				queueMS += rep.ms - res.ElapsedMS
			}
		case rq.kind == sweepReq:
			if rep.summary == nil || rep.summary.Errors != 0 || rep.summary.OK != 6 || len(rep.results) != 6 {
				out.fail("sweep %d: summary %+v with %d results, want 6 points", i, rep.summary, len(rep.results))
				continue
			}
			for _, res := range rep.results {
				accept(i, res, rq.workload)
			}
		}
	}
	if st.ReplayMaterialized != 0 {
		out.fail("session materialized %d streams; the pre-filled store holds them all", st.ReplayMaterialized)
	}

	ids := make([]string, 0, len(canon))
	for id := range canon {
		ids = append(ids, id)
		out.cells = append(out.cells, cells[id])
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s\n%s\n", id, canon[id])
	}
	fmt.Fprintf(h, "bad=%d\n", bad)
	out.digest = hex.EncodeToString(h.Sum(nil))

	laneMS := 2 * float64(out.wall.Nanoseconds()) / 1e6
	out.layer = map[string]float64{
		"service.cache_hit_ratio": ratio(float64(cached), float64(runs)),
		"service.executed":        float64(st.Executed),
		"service.coalesced":       float64(st.Coalesced),
		"service.bad_requests":    float64(bad),
		"service.backend_pct":     100 * ratio(backendMS, laneMS),
		"service.queue_http_pct":  100 * ratio(queueMS, missMS),
		"service.p99_over_p50":    ratio(percentile(out.samples, 99), median(out.samples)),
		"replay.store_hits":       float64(st.ReplayStoreHits),
		"replay.materialized":     float64(st.ReplayMaterialized),
	}
	return 1000 * median(hitMS)
}

// hitProbes measures, once the load has stopped, the latency of a cached
// /v1/run answered by a direct Service.Do call and over HTTP: the
// difference is the cost of the HTTP layer on a hit.
func hitProbes(svc *service.Service, client *http.Client, base string, reqs []genReq, replies []reply, tr *tracer) (doUS, httpUS float64, err error) {
	var cachedReqs []genReq
	seen := make(map[string]bool)
	for i, rq := range reqs {
		if rq.kind == runReq && replies[i].err == nil && len(replies[i].results) == 1 &&
			replies[i].results[0].Cached && !seen[string(rq.body)] {
			seen[string(rq.body)] = true
			cachedReqs = append(cachedReqs, rq)
		}
	}
	if len(cachedReqs) == 0 {
		return 0, 0, nil
	}
	root := tr.begin("probe", -1, -1)
	defer root.end()
	var do, web []float64
	for i := 0; i < probeRequests; i++ {
		rq := cachedReqs[i%len(cachedReqs)]
		var run service.RunRequest
		if err := json.Unmarshal(rq.body, &run); err != nil {
			return 0, 0, err
		}
		s := tr.begin("service.do_hit", root.id, 0)
		t0 := time.Now()
		res, err := svc.Do(context.Background(), run, false)
		do = append(do, float64(time.Since(t0).Nanoseconds())/1e3)
		s.end()
		if err != nil || !res.Cached {
			return 0, 0, fmt.Errorf("direct Do of a cached point: cached=%v err=%v", err == nil && res.Cached, err)
		}
		s = tr.begin("http.hit", root.id, 0)
		rep := send(client, base, rq)
		s.end()
		if rep.err != nil || rep.status != http.StatusOK {
			return 0, 0, fmt.Errorf("HTTP hit: status %d err %v", rep.status, rep.err)
		}
		web = append(web, rep.ms*1000)
	}
	return median(do), median(web), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

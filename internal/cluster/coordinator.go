package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/service"
	"sfcmdt/internal/snapshot"
)

// ErrNoWorkers means no healthy worker is eligible for a request (503).
var ErrNoWorkers = errors.New("cluster: no healthy workers")

// Config sizes the coordinator.
type Config struct {
	// Replicas is the ring's virtual points per worker (default 64).
	Replicas int
	// LoadFactor is the bounded-load factor c: a worker whose in-flight
	// load reaches ceil(c·(total+1)/n) spills keys to its ring successor.
	// <=1 disables spilling (pure ownership). Default 1.25.
	LoadFactor float64
	// ProbeInterval is the health-check cadence (default 1s); ProbeTimeout
	// bounds one probe (default 2s); ProbeFailures consecutive probe or
	// transport failures eject a worker from the ring (default 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	ProbeFailures int
	// RetryMax bounds attempts per proxied run, the first included
	// (default 4); RetryBase is the exponential-backoff base between
	// attempts (default 50ms, doubling each retry).
	RetryMax  int
	RetryBase time.Duration
	// RequestTimeout bounds one proxied attempt (default 5m — a sweep
	// point queues on the worker, so the deadline covers queueing too).
	RequestTimeout time.Duration
	// MaxSweepPoints bounds one sweep grid (default 4096).
	MaxSweepPoints int
	// SweepFanout bounds a sweep's concurrently in-flight points; 0 sizes
	// it at 4 points per healthy worker (min 4) when the sweep starts.
	SweepFanout int
	// DefaultInsts/MaxInsts/MaxFFInsts must mirror the workers'
	// normalization caps: the coordinator computes routing keys with
	// exactly the normalization the workers apply. Defaults match
	// service.Config's defaults.
	DefaultInsts uint64
	MaxInsts     uint64
	MaxFFInsts   uint64
	// HTTP overrides the client used for worker calls (tests).
	HTTP *http.Client
	// Logf receives cluster membership and reroute events (nil discards).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 4096
	}
	if c.DefaultInsts == 0 {
		c.DefaultInsts = 20_000
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = 200_000
	}
	if c.MaxFFInsts == 0 {
		c.MaxFFInsts = 50_000_000
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// pin sticks a sweep group (one placement key) to a worker: every point of
// the group follows the pin, so a workload's stream and checkpoints
// materialize on exactly one node per sweep, and a mid-sweep failure moves
// the whole group — not point-by-point churn — to the replacement. Guarded
// by Coordinator.mu.
type pin struct {
	addr string
}

// Coordinator routes requests over the worker fleet. Create with New, serve
// via Handler, stop with BeginDrain + Close.
type Coordinator struct {
	cfg   Config
	httpc *http.Client
	start time.Time
	logf  func(string, ...any)

	mu       sync.Mutex
	ring     *Ring // healthy workers only; ejection moves ownership
	workers  map[string]*workerState
	draining bool

	wg         sync.WaitGroup // in-flight run/sweep handlers, for drain
	loopCancel context.CancelFunc

	nRuns        atomic.Uint64
	nSweeps      atomic.Uint64
	nSweepPoints atomic.Uint64
	nRerouted    atomic.Uint64
	nRetries     atomic.Uint64
	nFailed      atomic.Uint64
	nEjected     atomic.Uint64
	nReadmitted  atomic.Uint64
	nStoreGets   atomic.Uint64
	nStoreHits   atomic.Uint64
	nStorePuts   atomic.Uint64
}

// New builds a coordinator and starts its health loop; Close must eventually
// be called to stop it.
func New(cfg Config) *Coordinator {
	cfg.fillDefaults()
	c := &Coordinator{
		cfg:     cfg,
		httpc:   cfg.HTTP,
		start:   time.Now(),
		logf:    cfg.Logf,
		ring:    NewRing(cfg.Replicas),
		workers: make(map[string]*workerState),
	}
	if c.httpc == nil {
		c.httpc = defaultHTTP
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.loopCancel = cancel
	go c.healthLoop(ctx)
	return c
}

// begin gates a request on drain state and tracks it for Close.
func (c *Coordinator) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return false
	}
	c.wg.Add(1)
	return true
}

func (c *Coordinator) end() { c.wg.Done() }

// BeginDrain refuses new requests; in-flight points keep running.
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Close drains the coordinator: new requests are refused, the health loop
// stops, and Close blocks until in-flight proxied requests finish or ctx
// expires (the HTTP server's shutdown then severs them).
func (c *Coordinator) Close(ctx context.Context) error {
	c.BeginDrain()
	c.loopCancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire picks the worker for a placement key: the pinned one if the pin is
// alive, else bounded-load consistent hashing over the healthy, not-yet-tried
// workers. The pick's in-flight count is incremented; release must follow.
func (c *Coordinator) acquire(key string, tried map[string]bool, p *pin) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p != nil && p.addr != "" {
		if ws := c.workers[p.addr]; ws != nil && ws.healthy && !tried[p.addr] {
			ws.inflight++
			ws.requests++
			return ws
		}
		p.addr = "" // pin target ejected or already failed this point
	}
	var cands []*workerState
	for _, addr := range c.ring.Sequence(key) {
		if ws := c.workers[addr]; ws != nil && ws.healthy && !tried[addr] {
			cands = append(cands, ws)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	pick := cands[0]
	if c.cfg.LoadFactor > 1 && len(cands) > 1 {
		total := 0
		for _, ws := range cands {
			total += ws.inflight
		}
		bound := int(math.Ceil(c.cfg.LoadFactor * float64(total+1) / float64(len(cands))))
		for _, ws := range cands {
			if ws.inflight < bound {
				pick = ws
				break
			}
		}
	}
	pick.inflight++
	pick.requests++
	if p != nil {
		p.addr = pick.addr
	}
	return pick
}

func (c *Coordinator) release(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws := c.workers[addr]; ws != nil {
		ws.inflight--
	}
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff is the exponential retry delay before attempt n (n>=1), capped at
// 32× the base so a long retry chain stays responsive to readmissions.
func (c *Coordinator) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	return c.cfg.RetryBase << shift
}

// Do proxies one run request to the fleet: normalize (the same
// canonicalization the workers apply, so the routing key is exact), pick the
// placement key's owner, execute remotely with a per-attempt timeout, and on
// node failure reroute to the next worker with exponential backoff. Safe
// because runs are deterministic and keyed: a replayed point is bit-identical
// to the run that was lost, wherever it lands.
func (c *Coordinator) Do(ctx context.Context, rq service.RunRequest, wait bool) (*service.Result, error) {
	return c.do(ctx, rq, wait, nil)
}

func (c *Coordinator) do(ctx context.Context, rq service.RunRequest, wait bool, p *pin) (*service.Result, error) {
	if err := rq.Normalize(c.cfg.DefaultInsts, c.cfg.MaxInsts, c.cfg.MaxFFInsts); err != nil {
		return nil, err
	}
	c.nRuns.Add(1)
	key := rq.PlacementKey()
	tried := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.RetryMax; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
				return nil, err
			}
		}
		ws := c.acquire(key, tried, p)
		if ws == nil {
			// Every eligible worker failed this request (or none is
			// registered). Clear the exclusions and keep backing off: a
			// probe may readmit a worker, or a new one may register.
			tried = make(map[string]bool)
			if lastErr == nil {
				lastErr = ErrNoWorkers
			}
			continue
		}
		if attempt > 0 {
			c.nRerouted.Add(1)
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
		res, err := ws.client.Run(actx, rq, wait)
		cancel()
		c.release(ws.addr)
		if err == nil {
			c.noteSuccess(ws.addr)
			res.Node = ws.addr
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The client (not the worker) went away; don't blame the node.
			return nil, ctx.Err()
		}
		if transportError(err) {
			c.noteFailure(ws.addr)
		}
		if !retryable(err) {
			c.nFailed.Add(1)
			return nil, err
		}
		tried[ws.addr] = true
		c.nRetries.Add(1)
	}
	c.nFailed.Add(1)
	return nil, fmt.Errorf("cluster: %s: giving up after %d attempts: %w", key, c.cfg.RetryMax, lastErr)
}

// Handler returns the coordinator's HTTP API — the same /v1/run and
// /v1/sweep shapes the workers serve (a client cannot tell a coordinator
// from a big worker), plus registration and the fleet store:
//
//	POST /v1/run            proxy one run to its owner (reroute on failure)
//	POST /v1/sweep          fan a grid out per placement key -> NDJSON
//	POST /v1/register       worker heartbeat {"addr": "host:port"}
//	POST /v1/deregister     graceful worker leave
//	GET  /v1/healthz        200 accepting / 503 draining (also /healthz)
//	GET  /v1/stats          cluster counters + per-worker state (also /statsz)
//	GET  /v1/store/{kind}   fleet blob fetch (fan across workers)
//	PUT  /v1/store/{kind}   fleet blob publish (to the key's owner)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", c.handleRun)
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("POST /v1/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /statsz", c.handleStats)
	mux.Handle("/v1/store/", blob.Handler(
		blob.Mount{Kind: snapshot.Codec.Kind, Store: fleetStore{c, snapshot.Codec.Kind}},
		blob.Mount{Kind: replay.Codec.Kind, Store: fleetStore{c, replay.Codec.Kind}},
	))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeClusterError maps proxy errors onto HTTP statuses: request errors are
// 400, fleet exhaustion 503, a worker's own final answer passes through with
// its status (429 keeps its backpressure semantics), and transport failure
// after every retry is 502 — the coordinator is honest about being a proxy.
func writeClusterError(w http.ResponseWriter, err error) {
	var re *RemoteError
	switch {
	case errors.Is(err, service.ErrBadRequest):
		writeJSONError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrNoWorkers):
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &re):
		if re.Status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSONError(w, re.Status, errors.New(re.Msg))
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSONError(w, http.StatusServiceUnavailable, err)
	default:
		writeJSONError(w, http.StatusBadGateway, err)
	}
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if !c.begin() {
		w.Header().Set("Retry-After", "5")
		writeJSONError(w, http.StatusServiceUnavailable, errors.New("draining: coordinator is shutting down"))
		return
	}
	defer c.end()
	var rq service.RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	res, err := c.Do(r.Context(), rq, false)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		writeJSONError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	var body struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&body); err != nil || body.Addr == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New("register: want {\"addr\": \"host:port\"}"))
		return
	}
	c.Register(body.Addr)
	c.mu.Lock()
	n := c.ring.Len()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "healthy_workers": n})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&body); err != nil || body.Addr == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New("deregister: want {\"addr\": \"host:port\"}"))
		return
	}
	c.Deregister(body.Addr)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleSweep expands the grid, groups points by placement key, pins each
// group to a worker, and streams results as NDJSON in completion order with
// the same summary line a single node emits. A group whose worker dies
// mid-sweep re-pins to the next owner and its failed points re-execute
// there — bit-identical, because the grid is deterministic and keyed.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !c.begin() {
		w.Header().Set("Retry-After", "5")
		writeJSONError(w, http.StatusServiceUnavailable, errors.New("draining: coordinator is shutting down"))
		return
	}
	defer c.end()
	var sr service.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	reqs := sr.Expand()
	if len(reqs) == 0 {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("%w: empty sweep grid", service.ErrBadRequest))
		return
	}
	if len(reqs) > c.cfg.MaxSweepPoints {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Errorf("%w: sweep grid has %d points, cap is %d", service.ErrBadRequest, len(reqs), c.cfg.MaxSweepPoints))
		return
	}
	c.nSweeps.Add(1)
	c.nSweepPoints.Add(uint64(len(reqs)))

	// Normalize upfront: grouping needs placement keys before dispatch.
	// Invalid points become error lines, exactly as on a single node.
	type point struct {
		rq  service.RunRequest
		pin *pin
		err error
	}
	points := make([]point, len(reqs))
	pins := make(map[string]*pin)
	for i, rq := range reqs {
		raw := rq
		if err := rq.Normalize(c.cfg.DefaultInsts, c.cfg.MaxInsts, c.cfg.MaxFFInsts); err != nil {
			points[i] = point{rq: raw, err: err}
			continue
		}
		k := rq.PlacementKey()
		p := pins[k]
		if p == nil {
			p = &pin{}
			pins[k] = p
		}
		points[i] = point{rq: rq, pin: p}
	}

	fanout := c.cfg.SweepFanout
	if fanout <= 0 {
		c.mu.Lock()
		fanout = 4 * c.ring.Len()
		c.mu.Unlock()
		if fanout < 4 {
			fanout = 4
		}
	}

	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	results := make(chan *service.Result, fanout)
	go func() {
		defer close(results)
		sem := make(chan struct{}, fanout)
		var wg sync.WaitGroup
		for _, pt := range points {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break // client gone: stop launching the rest of the grid
			}
			wg.Add(1)
			go func(pt point) {
				defer wg.Done()
				defer func() { <-sem }()
				var res *service.Result
				err := pt.err
				if err == nil {
					res, err = c.do(ctx, pt.rq, true, pt.pin)
				}
				if err != nil {
					res = &service.Result{Workload: pt.rq.Workload, Config: pt.rq.Config + "/" + pt.rq.Mem, Err: err.Error()}
				}
				results <- res
			}(pt)
		}
		wg.Wait()
	}()

	enc := json.NewEncoder(w)
	t0 := time.Now()
	sum := service.SweepSummary{Done: true, Runs: len(reqs)}
	for res := range results {
		switch {
		case res.Err != "":
			sum.Errors++
		default:
			sum.OK++
			if res.Cached {
				sum.Cached++
			}
			if res.Coalesced {
				sum.Coalesced++
			}
		}
		line := res
		if !sr.Stats && res.Stats != nil {
			// Mirror the single-node sweep's compact lines (full counters
			// only on request), so canonical outputs byte-compare.
			cp := *res
			cp.Stats = nil
			line = &cp
		}
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum.Errors += sum.Runs - sum.OK - sum.Errors // points never launched
	sum.ElapsedMS = float64(time.Since(t0)) / float64(time.Millisecond)
	_ = enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

// fleetStore is one blob kind across the fleet, served at /v1/store/{kind} by
// the handler the workers mount too. Get tries the healthy workers in the
// key's ring order (the likely owner first) and skips any that errors: a
// fleet miss only costs the asker a re-materialization. Put goes to the
// key's owner, falling down the ring if it refuses, so Get finds it first.
type fleetStore struct {
	c    *Coordinator
	kind blob.Kind
}

// peers is the healthy-worker preference order for a key. Keys are
// canonical, so every node computes the same owner.
func (f fleetStore) peers(key string) []*blob.Remote {
	f.c.mu.Lock()
	seq := f.c.ring.Sequence("store|" + f.kind.Name + "|" + key)
	f.c.mu.Unlock()
	rs := make([]*blob.Remote, len(seq))
	for i, addr := range seq {
		rs[i] = &blob.Remote{Base: addr, Kind: f.kind, HTTP: f.c.httpc}
	}
	return rs
}

func (f fleetStore) Get(key string) ([]byte, bool, error) {
	f.c.nStoreGets.Add(1)
	for _, r := range f.peers(key) {
		if b, ok, err := r.Get(key); err == nil && ok {
			f.c.nStoreHits.Add(1)
			return b, true, nil
		}
	}
	return nil, false, nil
}

func (f fleetStore) Put(key string, b []byte) error {
	f.c.nStorePuts.Add(1)
	var lastErr error = ErrNoWorkers
	for _, r := range f.peers(key) {
		if lastErr = r.Put(key, b); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("cluster: fleet %s put failed: %w", f.kind.Name, lastErr)
}

// WorkerInfo is one worker's row in the /v1/stats payload.
type WorkerInfo struct {
	Addr     string  `json:"addr"`
	Healthy  bool    `json:"healthy"`
	Inflight int     `json:"inflight"`
	Requests uint64  `json:"requests"`
	Fails    int     `json:"fails"`
	BeatAge  float64 `json:"last_beat_age_seconds"`
}

// Stats is the coordinator's /v1/stats payload.
type Stats struct {
	UptimeSeconds  float64      `json:"uptime_seconds"`
	Draining       bool         `json:"draining"`
	TotalWorkers   int          `json:"total_workers"`
	HealthyWorkers int          `json:"healthy_workers"`
	Workers        []WorkerInfo `json:"workers"`

	Runs        uint64 `json:"runs"`         // proxied run requests (sweep points included)
	Sweeps      uint64 `json:"sweeps"`       // sweep grids fanned out
	SweepPoints uint64 `json:"sweep_points"` // grid points dispatched
	Rerouted    uint64 `json:"rerouted"`     // attempts that moved to another worker
	Retries     uint64 `json:"retries"`      // failed attempts that will retry
	Failed      uint64 `json:"failed"`       // requests that exhausted retries
	Ejected     uint64 `json:"ejected"`      // health ejections
	Readmitted  uint64 `json:"readmitted"`   // health readmissions
	StoreGets   uint64 `json:"store_gets"`   // fleet store fetches
	StoreHits   uint64 `json:"store_hits"`   // fetches a worker satisfied
	StorePuts   uint64 `json:"store_puts"`   // fleet store publishes
}

// ClusterStats returns a consistent snapshot of the routing state.
func (c *Coordinator) ClusterStats() Stats {
	c.mu.Lock()
	st := Stats{
		Draining:       c.draining,
		TotalWorkers:   len(c.workers),
		HealthyWorkers: c.ring.Len(),
	}
	now := time.Now()
	for _, ws := range c.workers {
		st.Workers = append(st.Workers, WorkerInfo{
			Addr:     ws.addr,
			Healthy:  ws.healthy,
			Inflight: ws.inflight,
			Requests: ws.requests,
			Fails:    ws.fails,
			BeatAge:  now.Sub(ws.lastBeat).Seconds(),
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Addr < st.Workers[j].Addr })
	st.UptimeSeconds = time.Since(c.start).Seconds()
	st.Runs = c.nRuns.Load()
	st.Sweeps = c.nSweeps.Load()
	st.SweepPoints = c.nSweepPoints.Load()
	st.Rerouted = c.nRerouted.Load()
	st.Retries = c.nRetries.Load()
	st.Failed = c.nFailed.Load()
	st.Ejected = c.nEjected.Load()
	st.Readmitted = c.nReadmitted.Load()
	st.StoreGets = c.nStoreGets.Load()
	st.StoreHits = c.nStoreHits.Load()
	st.StorePuts = c.nStorePuts.Load()
	return st
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.ClusterStats())
}

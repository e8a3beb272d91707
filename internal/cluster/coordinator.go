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

// ErrNoWorkers means no healthy worker is eligible for a request: 503, and
// a worker may register within the second.
var ErrNoWorkers error = &service.StatusError{
	Status:     http.StatusServiceUnavailable,
	RetryAfter: "1",
	Msg:        "cluster: no healthy workers",
}

// Fixed routing parameters.
const (
	// ringReplicas is the ring's virtual points per worker: plenty for
	// single-digit fleets to balance within ~10%.
	ringReplicas = 64
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
	// retryMax bounds attempts per proxied run, the first included.
	retryMax = 4
	// requestTimeout bounds one proxied attempt. A sweep point queues on
	// its worker, so the deadline covers queueing too.
	requestTimeout = 5 * time.Minute
	// sweepFanout is a sweep's in-flight points per healthy worker, and its
	// minimum.
	sweepFanout = 4
)

// Config sizes the coordinator.
type Config struct {
	// Limits must match the workers': the coordinator normalizes each
	// request exactly as a worker will, to route it by placement key.
	service.Limits
	// LoadFactor is the bounded-load factor c: a worker whose in-flight
	// load reaches ceil(c·(total+1)/n) spills keys to its ring successor.
	// <=1 disables spilling (pure ownership). Default 1.25.
	LoadFactor float64
	// ProbeInterval is the health-check cadence (default 1s);
	// ProbeFailures consecutive probe or transport failures eject a worker
	// from the ring (default 2).
	ProbeInterval time.Duration
	ProbeFailures int
	// RetryBase is the exponential-backoff base between attempts
	// (default 50ms, doubling each retry).
	RetryBase time.Duration
	// Logf receives cluster membership and reroute events (nil discards).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	c.Limits = c.Limits.WithDefaults()
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
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
	start time.Time
	logf  func(string, ...any)

	mu       sync.Mutex
	ring     *Ring // healthy workers only; ejection moves ownership
	workers  map[string]*workerState
	draining bool

	wg         sync.WaitGroup // in-flight runs and sweeps, for drain
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
		start:   time.Now(),
		logf:    cfg.Logf,
		ring:    NewRing(ringReplicas),
		workers: make(map[string]*workerState),
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

// Do proxies one run request to the fleet: pick the placement key's owner,
// execute remotely with a per-attempt timeout, and on node failure reroute
// to the next worker with exponential backoff. Safe because runs are
// deterministic and keyed: a replayed point is bit-identical to the run that
// was lost, wherever it lands.
func (c *Coordinator) Do(ctx context.Context, rq service.RunRequest, wait bool) (*service.Result, error) {
	if !c.begin() {
		return nil, service.ErrDraining
	}
	defer c.end()
	key, err := c.placementKey(rq)
	if err != nil {
		return nil, err
	}
	return c.route(ctx, key, rq, wait, nil)
}

// Sweep admits one sweep for the front end. Its points queue on their
// workers, sweepFanout per healthy worker in flight, and the points of each
// placement key are pinned to one worker for the sweep: a workload's stream
// and checkpoints materialize on exactly one node. A group whose worker dies
// mid-sweep re-pins to the next owner and its failed points re-execute there
// — bit-identical, because the grid is deterministic and keyed.
func (c *Coordinator) Sweep(n int) (int, func(context.Context, service.RunRequest) (*service.Result, error), func(), error) {
	if !c.begin() {
		return 0, nil, nil, service.ErrDraining
	}
	c.nSweeps.Add(1)
	c.nSweepPoints.Add(uint64(n))
	c.mu.Lock()
	width := max(sweepFanout*c.ring.Len(), sweepFanout)
	c.mu.Unlock()
	var mu sync.Mutex
	pins := make(map[string]*pin)
	point := func(ctx context.Context, rq service.RunRequest) (*service.Result, error) {
		key, err := c.placementKey(rq)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		p := pins[key]
		if p == nil {
			p = &pin{}
			pins[key] = p
		}
		mu.Unlock()
		return c.route(ctx, key, rq, true, p)
	}
	return width, point, c.end, nil
}

// placementKey normalizes a copy of rq exactly as the workers will and
// returns its placement key. The request itself is forwarded as the client
// sent it: normalization sets a sampled request's Insts to the plan span,
// and a worker rejects insts together with sampling.
func (c *Coordinator) placementKey(rq service.RunRequest) (string, error) {
	if err := rq.Normalize(c.cfg.DefaultInsts, c.cfg.MaxInsts, c.cfg.MaxFFInsts); err != nil {
		return "", err
	}
	return rq.PlacementKey(), nil
}

// route runs rq on key's owner, or on p's worker while that pin holds.
func (c *Coordinator) route(ctx context.Context, key string, rq service.RunRequest, wait bool, p *pin) (*service.Result, error) {
	c.nRuns.Add(1)
	tried := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < retryMax; attempt++ {
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
		actx, cancel := context.WithTimeout(ctx, requestTimeout)
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
			break
		}
		tried[ws.addr] = true
		c.nRetries.Add(1)
	}
	c.nFailed.Add(1)
	return nil, giveUp(key, lastErr)
}

// giveUp is a proxied run's final error, carrying its own status. A worker's
// last answer is relayed with its status and message, a 429 keeping its
// backpressure hint. Otherwise no worker answered: an empty fleet keeps
// ErrNoWorkers' status, and transport failure on every attempt is 502 — the
// coordinator is honest about being a proxy.
func giveUp(key string, err error) error {
	var re *RemoteError
	if errors.As(err, &re) {
		se := &service.StatusError{Status: re.Status, Msg: re.Msg}
		if re.Status == http.StatusTooManyRequests {
			se.RetryAfter = "1"
		}
		return se
	}
	status, retryAfter := http.StatusBadGateway, ""
	var se *service.StatusError
	if errors.As(err, &se) { // ErrNoWorkers
		status, retryAfter = se.Status, se.RetryAfter
	}
	return &service.StatusError{
		Status:     status,
		RetryAfter: retryAfter,
		Msg:        fmt.Sprintf("cluster: %s: giving up after %d attempts: %v", key, retryMax, err),
	}
}

// Handler returns the coordinator's HTTP API: the /v1 front end the workers
// serve (service.NewMux; a client cannot tell a coordinator from a big
// worker) over the fleet store, plus registration:
//
//	POST /v1/register       worker heartbeat {"addr": "host:port"}
//	POST /v1/deregister     graceful worker leave
//	GET  /v1/store/{kind}   fleet blob fetch (fan across workers)
//	PUT  /v1/store/{kind}   fleet blob publish (to the key's owner)
func (c *Coordinator) Handler() http.Handler {
	mux := service.NewMux(c, fleetStore{c, snapshot.Codec.Kind}, fleetStore{c, replay.Codec.Kind})
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("POST /v1/deregister", c.handleDeregister)
	return mux
}

// workerAddr decodes a registration body, answering 400 if it names none.
func workerAddr(w http.ResponseWriter, r *http.Request) (string, bool) {
	var body struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&body); err != nil || body.Addr == "" {
		service.WriteError(w, fmt.Errorf(`%w: want {"addr": "host:port"}`, service.ErrBadRequest))
		return "", false
	}
	return body.Addr, true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		service.WriteError(w, service.ErrDraining)
		return
	}
	addr, ok := workerAddr(w, r)
	if !ok {
		return
	}
	c.Register(addr)
	c.mu.Lock()
	n := c.ring.Len()
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "healthy_workers": n})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if addr, ok := workerAddr(w, r); ok {
		c.Deregister(addr)
		service.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
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
		rs[i] = &blob.Remote{Base: addr, Kind: f.kind, HTTP: defaultHTTP}
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

// StatsPayload is the /v1/stats body: ClusterStats.
func (c *Coordinator) StatsPayload() any { return c.ClusterStats() }

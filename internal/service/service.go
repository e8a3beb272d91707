// Package service puts the simulator behind a concurrent serving front end:
// an HTTP JSON API whose expensive backend work (a full pipeline run) sits
// behind request canonicalization, singleflight coalescing of identical
// in-flight requests, a bounded LRU result cache, and a bounded worker pool
// with an explicit admission queue. Overload is surfaced as backpressure
// (429 + Retry-After) instead of unbounded latency; abandoned requests
// cancel their backend runs via the context plumbed through
// harness.Runner.RunContext into the pipeline cycle loop; shutdown drains
// in-flight work gracefully. See DESIGN.md §"Serving".
package service

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/harness"
	"sfcmdt/internal/par"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/snapshot"
	"sfcmdt/internal/workload"
)

// Sentinel errors, each carrying the HTTP status the front end answers with.
var (
	// ErrBadRequest marks an unnormalizable request (400).
	ErrBadRequest error = &StatusError{Status: http.StatusBadRequest, Msg: "bad request"}
	// ErrOverloaded means the admission queue is full (429). A worker frees
	// up within one backend run, so a one-second backoff is the honest hint.
	ErrOverloaded error = &StatusError{Status: http.StatusTooManyRequests, RetryAfter: "1", Msg: "overloaded: admission queue full"}
	// ErrDraining means the node is shutting down (503).
	ErrDraining error = &StatusError{Status: http.StatusServiceUnavailable, RetryAfter: "5", Msg: "draining: service is shutting down"}
)

// Backend executes one normalized run request. The default backend runs the
// simulator through a pooled harness.Runner; tests inject stubs to make
// coalescing and backpressure deterministic.
type Backend func(ctx context.Context, rq RunRequest) (*Result, error)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrent backend executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests admitted beyond the executing Workers —
	// the explicit admission queue. A non-waiting request that arrives
	// with Workers+QueueDepth requests already admitted is rejected with
	// ErrOverloaded. Default 4×Workers.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024).
	CacheEntries int
	// Limits are the request caps.
	Limits
	// SampleParallel bounds the interval-level parallelism of one sampled
	// run (default GOMAXPROCS; 1 serializes). A sampled request occupies
	// min(intervals, SampleParallel) weighted worker slots — capped at
	// Workers — so its fan-out is paid for at admission instead of
	// oversubscribing the pool.
	SampleParallel int
	// Checkpoints backs sampled runs' interval preparation. With a
	// snapshot.NewDiskStore store the fast-forward warmup survives restarts
	// and is shared across processes; nil keeps checkpoints in process
	// memory.
	Checkpoints snapshot.Store
	// Streams optionally backs the service-wide replay-stream cache with a
	// persistent store (replay.NewDiskStore), so reference streams survive
	// restarts the way checkpoints do. nil keeps streams in process memory;
	// the cache itself always exists and is shared by every runner, so all
	// points of a sweep — and all budgets that fit a materialized span —
	// reuse one functional pass per workload.
	Streams replay.Store
	// PublishCheckpoints and PublishStreams are the byte-level stores the
	// node's /v1/store endpoints serve: the locally owned tier a cluster
	// peer may pull blobs from and push blobs to. nil serves misses and
	// refuses writes. Cluster wiring MUST point these at the local tier,
	// never at a fleet-backed tiered store, or a peer's Get would recurse
	// through the coordinator back to this node.
	PublishCheckpoints blob.Store
	PublishStreams     blob.Store
	// Backend overrides the simulator-backed executor (tests only).
	Backend Backend
}

// Limits are a node's request caps. A cluster coordinator normalizes each
// request exactly as its workers will, to route it, so its Limits must
// match theirs.
type Limits struct {
	// DefaultInsts is the instruction budget for requests that name none
	// (default 20,000); MaxInsts caps what a request may ask for
	// (default 200,000).
	DefaultInsts uint64
	MaxInsts     uint64
	// MaxFFInsts caps a sampled request's total functional fast-forward
	// (FF × intervals; default 50,000,000). Fast-forward is ~two orders of
	// magnitude cheaper than detailed simulation, hence the separate, much
	// larger cap.
	MaxFFInsts uint64
}

// WithDefaults returns l with each zero cap set to its default.
func (l Limits) WithDefaults() Limits {
	if l.DefaultInsts == 0 {
		l.DefaultInsts = 20_000
	}
	if l.MaxInsts == 0 {
		l.MaxInsts = 200_000
	}
	if l.MaxFFInsts == 0 {
		l.MaxFFInsts = 50_000_000
	}
	return l
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	c.Limits = c.Limits.WithDefaults()
	if c.SampleParallel <= 0 {
		c.SampleParallel = runtime.GOMAXPROCS(0)
	}
	if c.Checkpoints == nil {
		c.Checkpoints = snapshot.NewMemStore()
	}
}

// call is one in-flight backend execution that any number of identical
// requests wait on. refs counts the waiters still interested; the last one
// to walk away cancels the run.
type call struct {
	done   chan struct{} // closed when res/err are set
	cancel context.CancelFunc
	refs   int
	res    *Result
	err    error
}

// Service is one simulator node. Create with New, serve via Handler, stop
// with BeginDrain + Close.
type Service struct {
	cfg     Config
	backend Backend
	start   time.Time

	// baseCtx parents every backend run; baseCancel force-aborts them all
	// (the hard-stop path when a drain deadline expires).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// mu guards cache, flight, admitted, and draining. The critical
	// sections are all short (no I/O, no simulation).
	mu       sync.Mutex
	cache    *lruCache
	flight   map[string]*call
	admitted int // weighted units admitted: executing + queued backend calls
	draining bool

	// slots is the weighted execution semaphore (capacity Workers). A
	// plain run holds one unit; a sampled run holds its full interval
	// fan-out, min(K, SampleParallel) units, so concurrent sampled
	// requests compose to ≈Workers pipelines instead of multiplying.
	slots *par.Sem

	wg sync.WaitGroup // tracks runCall goroutines for drain

	// runners caches one harness.Runner per instruction budget: a
	// runner's golden-trace cache is keyed by workload name alone, so
	// budgets must not share one. Each runner pools pipelines across its
	// runs. samplers is the sampled-mode analogue, one runner per sampling
	// plan: its per-workload interval cache lets every configuration of a
	// coalesced sweep reuse one functional pass, and the shared checkpoint
	// store lets even that pass be skipped when the warmup was already
	// materialized (possibly by an earlier process).
	runnersMu sync.Mutex
	runners   map[uint64]*harness.Runner
	samplers  map[string]*harness.Runner

	// replay is the service-wide stream cache every runner shares: runners
	// are per-budget, but the cache's prefix reuse means one materialized
	// stream serves every budget it covers.
	replay *replay.Cache

	// Serving counters (see Snapshot for meanings).
	nRequests  atomic.Uint64
	nCacheHits atomic.Uint64
	nCoalesced atomic.Uint64
	nExecuted  atomic.Uint64
	nRejected  atomic.Uint64
	nCanceled  atomic.Uint64
	nFailed    atomic.Uint64
}

// New builds a service; Close must eventually be called to release it.
func New(cfg Config) *Service {
	cfg.fillDefaults()
	s := &Service{
		cfg:      cfg,
		start:    time.Now(),
		cache:    newLRUCache(cfg.CacheEntries),
		flight:   make(map[string]*call),
		slots:    par.NewSem(int64(cfg.Workers)),
		runners:  make(map[uint64]*harness.Runner),
		samplers: make(map[string]*harness.Runner),
		replay:   replay.NewCache(cfg.Streams),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.backend = cfg.Backend
	if s.backend == nil {
		s.backend = s.simBackend
	}
	return s
}

// Do serves one run request: normalize to a canonical key, serve repeats
// from the cache, coalesce onto an identical in-flight run, otherwise
// execute on the bounded worker pool. wait selects the admission policy for
// a backend miss: false rejects immediately with ErrOverloaded when the
// queue is full (interactive /v1/run), true queues without bound (sweep
// points, whose concurrency the sweep itself bounds).
//
// The returned Result is the caller's own shallow copy; Cached/Coalesced
// describe how this particular call was served.
func (s *Service) Do(ctx context.Context, rq RunRequest, wait bool) (*Result, error) {
	if err := rq.Normalize(s.cfg.DefaultInsts, s.cfg.MaxInsts, s.cfg.MaxFFInsts); err != nil {
		return nil, err
	}
	s.nRequests.Add(1)
	key := rq.Key()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if res, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.nCacheHits.Add(1)
		out := *res
		out.Cached = true
		return &out, nil
	}
	c, joined := s.flight[key]
	if joined {
		c.refs++
		s.nCoalesced.Add(1)
	} else {
		runCtx, cancel := context.WithCancel(s.baseCtx)
		c = &call{done: make(chan struct{}), cancel: cancel, refs: 1}
		s.flight[key] = c
		s.wg.Add(1)
		go s.runCall(runCtx, key, rq, c, wait)
	}
	s.mu.Unlock()

	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		out := *c.res
		out.Coalesced = joined
		return &out, nil
	case <-ctx.Done():
		// This waiter is gone; if it was the last one, cancel the run so
		// the backend stops burning a worker on a result nobody wants.
		s.mu.Lock()
		c.refs--
		last := c.refs == 0
		s.mu.Unlock()
		if last {
			c.cancel()
		}
		return nil, ctx.Err()
	}
}

// Sweep admits one sweep for the front end: its points go through Do with
// the queueing admission policy, one worker pool's worth at a time.
func (s *Service) Sweep(int) (int, func(context.Context, RunRequest) (*Result, error), func(), error) {
	if s.Draining() {
		return 0, nil, nil, ErrDraining
	}
	point := func(ctx context.Context, rq RunRequest) (*Result, error) { return s.Do(ctx, rq, true) }
	return s.cfg.Workers, point, func() {}, nil
}

// runCall owns one backend execution: admission, run, publish, cache.
func (s *Service) runCall(ctx context.Context, key string, rq RunRequest, c *call, wait bool) {
	defer s.wg.Done()
	defer c.cancel() // release the context once the result is published
	res, err := s.execute(ctx, rq, wait)
	s.mu.Lock()
	delete(s.flight, key)
	if err == nil {
		s.cache.add(key, res)
	}
	c.res, c.err = res, err
	close(c.done)
	s.mu.Unlock()
}

// execute acquires the request's weighted admission slots and runs the
// backend.
func (s *Service) execute(ctx context.Context, rq RunRequest, wait bool) (*Result, error) {
	w := s.weight(rq)
	if err := s.acquireSlot(ctx, wait, w); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.nRejected.Add(1)
		} else {
			s.nCanceled.Add(1)
		}
		return nil, err
	}
	defer s.releaseSlot(w)
	if err := ctx.Err(); err != nil { // canceled while queued
		s.nCanceled.Add(1)
		return nil, err
	}
	t0 := time.Now()
	res, err := s.backend(ctx, rq)
	if err != nil {
		if ctx.Err() != nil {
			s.nCanceled.Add(1)
		} else {
			s.nFailed.Add(1)
		}
		return nil, err
	}
	res.ElapsedMS = float64(time.Since(t0)) / float64(time.Millisecond)
	s.nExecuted.Add(1)
	return res, nil
}

// weight is the number of worker slots one backend call occupies: a plain
// run uses one pipeline; a sampled run may fan its intervals across up to
// min(K, SampleParallel) pipelines, every one of which is paid for at
// admission so concurrent sampled requests cannot oversubscribe the pool.
func (s *Service) weight(rq RunRequest) int64 {
	if rq.Sampling == nil {
		return 1
	}
	w := rq.Sampling.Intervals
	if w > s.cfg.SampleParallel {
		w = s.cfg.SampleParallel
	}
	if w > s.cfg.Workers {
		w = s.cfg.Workers
	}
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// acquireSlot admits a backend call of weight w. Admission counts weighted
// executing plus queued units; a non-waiting call whose weight no longer
// fits under Workers+QueueDepth bounces with ErrOverloaded rather than
// queuing unboundedly. (At w=1 this is exactly the pre-weighted policy:
// reject when Workers+QueueDepth units are already admitted.)
func (s *Service) acquireSlot(ctx context.Context, wait bool, w int64) error {
	s.mu.Lock()
	if !wait && s.admitted+int(w) > s.cfg.Workers+s.cfg.QueueDepth {
		s.mu.Unlock()
		return ErrOverloaded
	}
	s.admitted += int(w)
	s.mu.Unlock()
	if err := s.slots.Acquire(ctx, w); err != nil {
		s.mu.Lock()
		s.admitted -= int(w)
		s.mu.Unlock()
		return err
	}
	return nil
}

func (s *Service) releaseSlot(w int64) {
	s.slots.Release(w)
	s.mu.Lock()
	s.admitted -= int(w)
	s.mu.Unlock()
}

// runnerFor returns the pooled harness runner for an instruction budget.
func (s *Service) runnerFor(insts uint64) *harness.Runner {
	s.runnersMu.Lock()
	defer s.runnersMu.Unlock()
	r, ok := s.runners[insts]
	if !ok {
		r = harness.NewRunner(insts)
		r.Replay = s.replay
		s.runners[insts] = r
	}
	return r
}

// samplerFor returns the pooled sampled-mode runner for a plan. Runners are
// keyed by the full plan, so coalesced sweep points sharing a plan share one
// runner — and, through it, each workload's prepared intervals.
func (s *Service) samplerFor(sp SamplingSpec) *harness.Runner {
	s.runnersMu.Lock()
	defer s.runnersMu.Unlock()
	r, ok := s.samplers[sp.key()]
	if !ok {
		r = harness.NewRunner(0)
		plan := sp.plan()
		r.Sampling = &plan
		r.Checkpoints = s.cfg.Checkpoints
		r.Parallel = s.cfg.SampleParallel
		s.samplers[sp.key()] = r
	}
	return r
}

// simBackend is the production backend: one pipeline run through the pooled
// harness, honoring cancellation via the context plumbed into the cycle
// loop.
func (s *Service) simBackend(ctx context.Context, rq RunRequest) (*Result, error) {
	w, ok := workload.Get(rq.Workload)
	if !ok {
		return nil, ErrBadRequest // normalize already checked; defensive
	}
	r := s.runnerFor(rq.Insts)
	if rq.Sampling != nil {
		r = s.samplerFor(*rq.Sampling)
	}
	hr := r.RunContext(ctx, rq.PipelineConfig(), w)
	if hr.Err != nil {
		return nil, hr.Err
	}
	return resultFromHarness(rq, hr), nil
}

// BeginDrain flips the service into shutdown mode: /healthz reports
// draining and every new request is refused with ErrDraining. In-flight
// work keeps running.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains the service: new requests are refused, and Close blocks
// until every in-flight backend call has finished. If ctx expires first,
// outstanding runs are force-canceled (the pipeline abandons them at its
// next context poll) and Close waits for them to unwind — it never returns
// with backend goroutines still live.
func (s *Service) Close(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	return err
}

// Snapshot is the /statsz payload.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	Requests  uint64 `json:"requests"`   // normalized run requests seen
	CacheHits uint64 `json:"cache_hits"` // served from the LRU
	Coalesced uint64 `json:"coalesced"`  // piggybacked on an in-flight run
	Executed  uint64 `json:"executed"`   // backend runs completed
	Rejected  uint64 `json:"rejected"`   // bounced with 429
	Canceled  uint64 `json:"canceled"`   // abandoned by their waiters
	Failed    uint64 `json:"failed"`     // backend errors

	InFlight int `json:"in_flight"` // distinct keys executing or queued
	// Admitted counts weighted units executing or queued: 1 per plain run,
	// min(intervals, SampleParallel) per sampled run.
	Admitted       int    `json:"admitted"`
	Workers        int    `json:"workers"`
	QueueDepth     int    `json:"queue_depth"`
	SampleParallel int    `json:"sample_parallel"`
	CacheEntries   int    `json:"cache_entries"`
	CacheCapacity  int    `json:"cache_capacity"`
	CacheEvictions uint64 `json:"cache_evictions"`

	// TotalRetired sums instructions retired across every backend run —
	// the serving-side analogue of the benchmark harness's simulated-MIPS
	// numerator.
	TotalRetired uint64 `json:"total_retired"`
	// CyclesElided sums the simulated cycles idle-cycle elision skipped in
	// closed form across every backend run: how much of the simulated time
	// was provably quiescent and never paid for cycle by cycle.
	CyclesElided uint64 `json:"cycles_elided"`

	// Replay-substrate counters (the service-wide stream cache): how many
	// full-detail runs were served from a resident stream, loaded from the
	// backing stream store, or paid a fresh functional pass. A sweep's
	// health signature is Materialized == distinct workloads.
	ReplayHits         uint64 `json:"replay_hits"`
	ReplayStoreHits    uint64 `json:"replay_store_hits"`
	ReplayMaterialized uint64 `json:"replay_materialized"`
}

// Stats returns a consistent snapshot of the serving counters.
func (s *Service) Stats() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		Draining:       s.draining,
		InFlight:       len(s.flight),
		Admitted:       s.admitted,
		CacheEntries:   s.cache.len(),
		CacheEvictions: s.cache.evictions,
	}
	s.mu.Unlock()
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	snap.Workers = s.cfg.Workers
	snap.QueueDepth = s.cfg.QueueDepth
	snap.SampleParallel = s.cfg.SampleParallel
	snap.CacheCapacity = s.cfg.CacheEntries
	snap.Requests = s.nRequests.Load()
	snap.CacheHits = s.nCacheHits.Load()
	snap.Coalesced = s.nCoalesced.Load()
	snap.Executed = s.nExecuted.Load()
	snap.Rejected = s.nRejected.Load()
	snap.Canceled = s.nCanceled.Load()
	snap.Failed = s.nFailed.Load()
	rs := s.replay.Stats()
	snap.ReplayHits = rs.Hits
	snap.ReplayStoreHits = rs.StoreHits
	snap.ReplayMaterialized = rs.Materialized
	s.runnersMu.Lock()
	for _, r := range s.runners {
		snap.TotalRetired += r.TotalRetired()
		snap.CyclesElided += r.TotalCyclesElided()
	}
	for _, r := range s.samplers {
		snap.TotalRetired += r.TotalRetired()
		snap.CyclesElided += r.TotalCyclesElided()
	}
	s.runnersMu.Unlock()
	return snap
}

// StatsPayload is the /v1/stats body: Stats.
func (s *Service) StatsPayload() any { return s.Stats() }

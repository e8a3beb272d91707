package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcmdt/internal/replay"
	"sfcmdt/internal/snapshot"
)

// stubBackend is a controllable backend: every run signals started, then
// blocks until release is closed (or its context is canceled), making
// coalescing, backpressure, and cancellation tests deterministic.
type stubBackend struct {
	started  chan string   // receives the request key as each run starts
	release  chan struct{} // close to let blocked runs finish
	runs     atomic.Int32
	canceled atomic.Int32
}

func newStubBackend() *stubBackend {
	return &stubBackend{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *stubBackend) fn(ctx context.Context, rq RunRequest) (*Result, error) {
	b.runs.Add(1)
	b.started <- rq.Key()
	select {
	case <-b.release:
		return NewResult(rq.Workload, "int", rq.Config+"/"+rq.Mem+"-"+rq.Pred, rq.Insts, nil), nil
	case <-ctx.Done():
		b.canceled.Add(1)
		return nil, ctx.Err()
	}
}

func (b *stubBackend) waitStarted(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-b.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("backend run %d/%d did not start", i+1, n)
		}
	}
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Errorf("service close: %v", err)
		}
	})
	return svc, ts
}

func postRun(t *testing.T, ts *httptest.Server, rq RunRequest) (*http.Response, *Result) {
	t.Helper()
	body, err := json.Marshal(rq)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return resp, &res
}

// TestKeyCanonicalization pins that defaulted and explicit spellings of the
// same run coalesce to one key, and distinct runs do not.
func TestKeyCanonicalization(t *testing.T) {
	a := RunRequest{Workload: "gzip"}
	b := RunRequest{Workload: "gzip", Config: "baseline", Mem: "mdtsfc", Pred: "enf", Insts: 20_000}
	for _, rq := range []*RunRequest{&a, &b} {
		if err := rq.Normalize(20_000, 200_000, 50_000_000); err != nil {
			t.Fatalf("normalize: %v", err)
		}
	}
	if a.Key() != b.Key() {
		t.Fatalf("defaulted key %q != explicit key %q", a.Key(), b.Key())
	}
	c := RunRequest{Workload: "gzip", Insts: 19_999}
	if err := c.Normalize(20_000, 200_000, 50_000_000); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if c.Key() == a.Key() {
		t.Fatalf("distinct insts collapsed to one key %q", c.Key())
	}
	// LSQ sizes are irrelevant to MDT/SFC runs and must fold out of the key.
	d := RunRequest{Workload: "gzip", LQ: 7, SQ: 9}
	if err := d.Normalize(20_000, 200_000, 50_000_000); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if d.Key() != a.Key() {
		t.Fatalf("mdtsfc run keyed on irrelevant LSQ sizes: %q vs %q", d.Key(), a.Key())
	}
}

// TestRunCacheHitAndMiss runs the real simulator backend end to end: the
// first request pays for a pipeline run, the repeat is served from the LRU.
func TestRunCacheHitAndMiss(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	svc, ts := newTestServer(t, Config{Workers: 2, Limits: Limits{DefaultInsts: 2000}})

	_, first := postRun(t, ts, RunRequest{Workload: "gzip"})
	if first == nil {
		t.Fatal("first run failed")
	}
	if first.Cached || first.Coalesced {
		t.Fatalf("first request should have executed on the backend: %+v", first)
	}
	if first.Retired == 0 || first.IPC <= 0 || first.Stats == nil {
		t.Fatalf("implausible result: %+v", first)
	}
	_, second := postRun(t, ts, RunRequest{Workload: "gzip", Config: "baseline", Mem: "mdtsfc"})
	if second == nil {
		t.Fatal("second run failed")
	}
	if !second.Cached {
		t.Fatalf("identical repeat should be a cache hit: %+v", second)
	}
	if second.Cycles != first.Cycles || second.Retired != first.Retired {
		t.Fatalf("cached result diverged: %+v vs %+v", second, first)
	}
	st := svc.Stats()
	if st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("want 1 executed + 1 cache hit, got %+v", st)
	}
	ts.Client().CloseIdleConnections()
}

// TestCoalescing pins the singleflight path: N concurrent identical
// requests reach the backend exactly once, and every request is answered.
func TestCoalescing(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	svc, ts := newTestServer(t, Config{Workers: 4, Backend: backend.fn})

	const clients = 8
	var wg sync.WaitGroup
	responses := make([]*Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(RunRequest{Workload: "gzip"})
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var res Result
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs[i] = err
				return
			}
			responses[i] = &res
		}(i)
	}

	backend.waitStarted(t, 1)         // the one leader is executing
	time.Sleep(50 * time.Millisecond) // let the rest pile onto the flight
	close(backend.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if n := backend.runs.Load(); n != 1 {
		t.Fatalf("backend executed %d times for %d identical requests, want 1", n, clients)
	}
	var backendServed, piggybacked int
	for _, res := range responses {
		if res.Cached || res.Coalesced {
			piggybacked++
		} else {
			backendServed++
		}
	}
	if backendServed != 1 || piggybacked != clients-1 {
		t.Fatalf("want 1 backend-served + %d coalesced/cached, got %d + %d", clients-1, backendServed, piggybacked)
	}
	st := svc.Stats()
	if st.Coalesced+st.CacheHits != clients-1 {
		t.Fatalf("server counters disagree: %+v", st)
	}
	ts.Client().CloseIdleConnections()
}

// TestQueueFullReturns429 pins the backpressure contract: with one worker
// busy and a zero-depth admission queue, a second distinct request bounces
// immediately with 429 + Retry-After instead of queuing.
func TestQueueFullReturns429(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, Backend: backend.fn})

	done := make(chan *Result, 1)
	go func() {
		_, res := postRun(t, ts, RunRequest{Workload: "gzip"})
		done <- res
	}()
	backend.waitStarted(t, 1) // the worker is now occupied

	resp, _ := postRun(t, ts, RunRequest{Workload: "mcf"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(backend.release)
	if res := <-done; res == nil {
		t.Fatal("occupying run failed")
	}
	// The worker is free again: the bounced request now succeeds on retry.
	resp, res := postRun(t, ts, RunRequest{Workload: "mcf"})
	if resp.StatusCode != http.StatusOK || res == nil {
		t.Fatalf("retry after backpressure got %d, want 200", resp.StatusCode)
	}
	ts.Client().CloseIdleConnections()
}

// TestSweepStreamsNDJSON checks the happy-path stream: one line per grid
// point plus a done summary.
func TestSweepStreamsNDJSON(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	close(backend.release) // backend completes immediately
	_, ts := newTestServer(t, Config{Workers: 2, Backend: backend.fn})
	go func() { // drain start signals
		for range backend.started {
		}
	}()
	defer close(backend.started)

	body, _ := json.Marshal(SweepRequest{Workloads: []string{"gzip", "mcf", "swim"}})
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 results + 1 summary:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	seen := map[string]bool{}
	for _, line := range lines[:3] {
		var res Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		if res.Err != "" {
			t.Fatalf("sweep line failed: %q", line)
		}
		seen[res.Workload] = true
	}
	if !seen["gzip"] || !seen["mcf"] || !seen["swim"] {
		t.Fatalf("missing workloads in stream: %v", seen)
	}
	var sum SweepSummary
	if err := json.Unmarshal([]byte(lines[3]), &sum); err != nil {
		t.Fatalf("bad summary %q: %v", lines[3], err)
	}
	if !sum.Done || sum.Runs != 3 || sum.OK != 3 || sum.Errors != 0 {
		t.Fatalf("summary %+v", sum)
	}
	ts.Client().CloseIdleConnections()
}

// TestSweepClientDisconnectCancels pins the cancellation path: a client
// that walks away mid-sweep cancels the in-flight backend runs and stops
// the launcher from starting the rest of the grid.
func TestSweepClientDisconnectCancels(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	svc, ts := newTestServer(t, Config{Workers: 2, Backend: backend.fn})

	body, _ := json.Marshal(SweepRequest{Workloads: []string{"gzip", "mcf", "swim", "mgrid", "applu", "gcc"}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	respc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			respc <- err
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 1)
		_, err = resp.Body.Read(buf) // block until canceled
		respc <- err
	}()

	backend.waitStarted(t, 2) // both workers occupied by sweep points
	cancel()                  // client walks away

	if err := <-respc; err == nil {
		t.Fatal("expected the canceled request to error")
	}
	// Every backend run that started must observe cancellation, the grid
	// must not keep launching, and the flight table must drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runs, canceled := backend.runs.Load(), backend.canceled.Load()
		st := svc.Stats()
		if runs >= 2 && canceled == runs && st.InFlight == 0 && st.Admitted == 0 {
			if runs == 6 {
				t.Fatalf("entire grid executed despite disconnect (%d runs)", runs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation did not drain: runs=%d canceled=%d stats=%+v", runs, canceled, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts.Client().CloseIdleConnections()
}

// TestDrainRefusesNewWork pins graceful shutdown: draining refuses new
// requests with 503 while in-flight work completes, and Close returns once
// the last run finishes.
func TestDrainRefusesNewWork(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	svc := New(Config{Workers: 2, Backend: backend.fn})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	done := make(chan *Result, 1)
	go func() {
		_, res := postRun(t, ts, RunRequest{Workload: "gzip"})
		done <- res
	}()
	backend.waitStarted(t, 1)

	svc.BeginDrain()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz returned %d, want 503", resp.StatusCode)
	}
	resp, _ = postRun(t, ts, RunRequest{Workload: "mcf"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run returned %d, want 503", resp.StatusCode)
	}

	close(backend.release)
	if res := <-done; res == nil {
		t.Fatal("in-flight run should finish during drain")
	}
	ctx, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClose()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := backend.canceled.Load(); n != 0 {
		t.Fatalf("graceful drain canceled %d runs", n)
	}
	ts.Client().CloseIdleConnections()
}

// TestCloseForceCancelsAtDeadline pins the hard-stop path: a Close whose
// context expires cancels outstanding backend runs and still waits for
// them to unwind before returning.
func TestCloseForceCancelsAtDeadline(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	svc := New(Config{Workers: 1, Backend: backend.fn})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	respc := make(chan int, 1)
	go func() {
		resp, _ := postRun(t, ts, RunRequest{Workload: "gzip"})
		respc <- resp.StatusCode
	}()
	backend.waitStarted(t, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close err = %v, want DeadlineExceeded", err)
	}
	if n := backend.canceled.Load(); n != 1 {
		t.Fatalf("force close canceled %d runs, want 1", n)
	}
	if status := <-respc; status != http.StatusServiceUnavailable {
		t.Fatalf("force-canceled request got %d, want 503", status)
	}
	ts.Client().CloseIdleConnections()
}

// TestBadRequests covers the 400 surface: unknown workloads, over-cap
// budgets, and unknown fields all bounce before touching the backend.
func TestBadRequests(t *testing.T) {
	backend := newStubBackend()
	_, ts := newTestServer(t, Config{Workers: 1, Limits: Limits{MaxInsts: 10_000}, Backend: backend.fn})
	for name, body := range map[string]string{
		"unknown workload": `{"workload":"no-such-benchmark"}`,
		"insts over cap":   `{"workload":"gzip","insts":1000000}`,
		"unknown field":    `{"workload":"gzip","bogus":1}`,
		"bad mem":          `{"workload":"gzip","mem":"tso"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n := backend.runs.Load(); n != 0 {
		t.Fatalf("bad requests reached the backend %d times", n)
	}
}

// TestServePathIndependence serves one unsampled and one sampled request
// through each path a node offers — cold, from the result cache, on fresh
// services that restore from the first one's checkpoint and stream stores,
// and (the sampled request) coalesced onto one restoring run — and requires
// byte-identical canonical JSON from every serving. The paths really differ:
// the cold sampled run fast-forwards, the restored one does not, and the
// wire's ff_insts says so until Canonical strips it.
func TestServePathIndependence(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	ctx := context.Background()
	checkpoints, streams := snapshot.NewMemStore(), replay.NewMemStore()
	plan := &SamplingSpec{FF: 1000, Warm: 200, Measure: 500, Intervals: 2}
	reqs := []RunRequest{
		{Workload: "gzip", Insts: 5_000},
		{Workload: "gzip", Sampling: plan},
	}
	canonical := func(svc *Service, rq RunRequest, cached bool) (*Result, string) {
		t.Helper()
		res, err := svc.Do(ctx, rq, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != cached {
			t.Fatalf("%s: cached=%v, want %v", rq.Key(), res.Cached, cached)
		}
		b, err := json.Marshal(res.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return res, string(b)
	}

	first := newReplayTestService(t, Config{Workers: 2, Checkpoints: checkpoints, Streams: streams})
	want := make([]string, len(reqs))
	for i, rq := range reqs {
		var res *Result
		res, want[i] = canonical(first, rq, false)
		if rq.Sampling != nil && res.Sampling.FFInsts != plan.FF*uint64(plan.Intervals) {
			t.Fatalf("cold sampled run fast-forwarded %d insts, want %d", res.Sampling.FFInsts, plan.FF*uint64(plan.Intervals))
		}
		if _, got := canonical(first, rq, true); got != want[i] {
			t.Errorf("%s: cached serving differs:\n got  %s\n want %s", rq.Key(), got, want[i])
		}
	}

	for i, rq := range reqs {
		fresh := newReplayTestService(t, Config{Workers: 2, Checkpoints: checkpoints, Streams: streams})
		res, got := canonical(fresh, rq, false)
		if rq.Sampling != nil && res.Sampling.FFInsts != 0 {
			t.Fatalf("restored sampled run fast-forwarded %d insts, want 0", res.Sampling.FFInsts)
		}
		if got != want[i] {
			t.Errorf("%s: serving from the shared stores differs:\n got  %s\n want %s", rq.Key(), got, want[i])
		}
		if st := fresh.Stats(); rq.Sampling == nil && (st.ReplayStoreHits != 1 || st.ReplayMaterialized != 0) {
			t.Errorf("fresh service: replay_store_hits=%d materialized=%d, want 1 and 0", st.ReplayStoreHits, st.ReplayMaterialized)
		}
	}

	// Coalesced: identical sampled requests at once on a fresh service over
	// the shared stores. The real backend's leader is held until every other
	// request has joined its flight, so all but one are served coalesced.
	const clients = 4
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseLeader := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseLeader()
	var coalesced *Service
	coalesced = newReplayTestService(t, Config{Workers: 2, Checkpoints: checkpoints, Streams: streams,
		Backend: func(ctx context.Context, rq RunRequest) (*Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return coalesced.simBackend(ctx, rq)
		}})
	results := make([]*Result, clients)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := coalesced.Do(ctx, reqs[1], true)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); coalesced.Stats().Coalesced < clients-1; {
		if time.Now().After(deadline) {
			releaseLeader()
			wg.Wait()
			t.Fatalf("only %d of %d requests joined the leader's flight", coalesced.Stats().Coalesced, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	releaseLeader()
	wg.Wait()
	joined := 0
	for _, res := range results {
		if res == nil {
			t.FailNow() // its error is already reported
		}
		if res.Coalesced {
			joined++
		}
		if res.Sampling.FFInsts != 0 {
			t.Fatalf("coalesced sampled run fast-forwarded %d insts, want 0", res.Sampling.FFInsts)
		}
		b, err := json.Marshal(res.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want[1] {
			t.Errorf("%s: coalesced serving differs:\n got  %s\n want %s", reqs[1].Key(), b, want[1])
		}
	}
	if joined != clients-1 {
		t.Errorf("%d of %d servings coalesced, want %d", joined, clients, clients-1)
	}
}

// TestSamplingKey pins the sampled key format: unsampled requests keep their
// historical key (cache back-compat across restarts), sampled ones append the
// plan, and distinct plans do not collide.
func TestSamplingKey(t *testing.T) {
	plain := RunRequest{Workload: "gzip"}
	if err := plain.Normalize(20_000, 200_000, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Key(), "|s:") {
		t.Fatalf("unsampled key grew a sampling suffix: %q", plain.Key())
	}
	a := RunRequest{Workload: "gzip", Sampling: &SamplingSpec{FF: 9000, Measure: 1000, Intervals: 2}}
	b := RunRequest{Workload: "gzip", Sampling: &SamplingSpec{FF: 8000, Warm: 1000, Measure: 1000, Intervals: 2}}
	for _, rq := range []*RunRequest{&a, &b} {
		if err := rq.Normalize(20_000, 200_000, 50_000_000); err != nil {
			t.Fatal(err)
		}
	}
	// Both plans span 20000 insts; only the sampling suffix separates them.
	if a.Insts != 20_000 || b.Insts != 20_000 {
		t.Fatalf("plan spans %d and %d, want 20000", a.Insts, b.Insts)
	}
	if a.Key() == b.Key() {
		t.Fatalf("distinct plans collapsed to one key %q", a.Key())
	}
}

// TestSamplingBadRequests covers the sampled 400 surface.
func TestSamplingBadRequests(t *testing.T) {
	backend := newStubBackend()
	_, ts := newTestServer(t, Config{Workers: 1, Limits: Limits{MaxInsts: 10_000, MaxFFInsts: 100_000}, Backend: backend.fn})
	for name, body := range map[string]string{
		"insts with sampling":  `{"workload":"gzip","insts":5000,"sampling":{"measure":100,"intervals":1}}`,
		"zero measure":         `{"workload":"gzip","sampling":{"ff":1000,"intervals":4}}`,
		"zero intervals":       `{"workload":"gzip","sampling":{"measure":100}}`,
		"detailed over cap":    `{"workload":"gzip","sampling":{"warm":5000,"measure":5000,"intervals":2}}`,
		"fast-forward over ff": `{"workload":"gzip","sampling":{"ff":60000,"measure":100,"intervals":2}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n := backend.runs.Load(); n != 0 {
		t.Fatalf("bad sampled requests reached the backend %d times", n)
	}
}

// TestSamplingOverflowRejected sends plans whose fast-forward or detailed
// budget wraps 64 bits, and one valid plan, to /v1/run and as a /v1/sweep
// sampling block. A wrapped budget must be a 400 (a failed sweep line), not
// a small number under the caps: the first plan would otherwise
// fast-forward 2^63 instructions per interval.
func TestSamplingOverflowRejected(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	backend := newStubBackend()
	close(backend.release) // backend completes immediately
	_, ts := newTestServer(t, Config{Workers: 1, Backend: backend.fn})
	go func() { // drain start signals
		for range backend.started {
		}
	}()
	defer close(backend.started)

	for _, tc := range []struct {
		name, sampling string
		ok             bool
	}{
		{"ff wraps", `{"ff":9223372036854775808,"measure":1000,"intervals":2}`, false},
		{"warm+measure wraps", `{"ff":1000,"warm":9223372036854775808,"measure":9223372036854775808,"intervals":1}`, false},
		{"detailed product wraps", `{"ff":1000,"measure":4611686018427387904,"intervals":4}`, false},
		{"valid", `{"ff":1000,"measure":1000,"intervals":2}`, true},
	} {
		body := `{"workload":"gzip","sampling":` + tc.sampling + `}`
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[tc.ok]; resp.StatusCode != want {
			t.Errorf("%s: /v1/run status %d, want %d", tc.name, resp.StatusCode, want)
		}

		body = `{"workloads":["gzip"],"sampling":` + tc.sampling + `}`
		resp, err = ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil || len(lines) != 2 {
			t.Fatalf("%s: sweep stream %q (err %v), want one result and a summary", tc.name, lines, err)
		}
		var res Result
		if err := json.Unmarshal([]byte(lines[0]), &res); err != nil {
			t.Fatalf("%s: bad sweep line %q: %v", tc.name, lines[0], err)
		}
		if tc.ok != (res.Err == "") || !tc.ok && !strings.Contains(res.Err, "bad request") {
			t.Errorf("%s: sweep point error %q, want ok=%v", tc.name, res.Err, tc.ok)
		}
		if n := backend.runs.Load(); !tc.ok && n != 0 {
			t.Fatalf("%s: a wrapped plan reached the backend (%d runs)", tc.name, n)
		}
	}
}

// TestSampledRunEndToEnd runs the real simulator backend in sampled mode: the
// response carries the sampling block, its IPC matches the headline IPC, and
// a sampled sweep over two configurations shares one workload preparation
// through the service's checkpoint store.
func TestSampledRunEndToEnd(t *testing.T) {
	t.Cleanup(trackGoroutines(t))
	svc, ts := newTestServer(t, Config{Workers: 2})

	rq := RunRequest{Workload: "gzip", Sampling: &SamplingSpec{FF: 4000, Warm: 500, Measure: 500, Intervals: 2}}
	resp, res := postRun(t, ts, rq)
	if res == nil {
		t.Fatalf("sampled run failed: status %d", resp.StatusCode)
	}
	if res.Sampling == nil {
		t.Fatalf("sampled result missing sampling block: %+v", res)
	}
	if res.Sampling.Intervals != 2 || len(res.Sampling.IntervalIPC) != 2 {
		t.Fatalf("sampling block %+v, want 2 intervals", res.Sampling)
	}
	if res.Sampling.IPC != res.IPC {
		t.Fatalf("sampling IPC %v != headline IPC %v", res.Sampling.IPC, res.IPC)
	}
	if res.Insts != 10_000 { // the plan's span
		t.Fatalf("insts %d, want the plan span 10000", res.Insts)
	}
	if res.Retired == 0 || res.Retired > 1000+8 {
		t.Fatalf("retired %d, want ≈ measured budget 1000", res.Retired)
	}

	// A sampled sweep over two predictor modes: both points measure against
	// the same prepared intervals (one sampler runner per plan), so the
	// second configuration pays no second fast-forward.
	body, _ := json.Marshal(SweepRequest{
		Workloads: []string{"gzip"},
		Preds:     []string{"enf", "off"},
		Sampling:  rq.Sampling,
	})
	sresp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer sresp.Body.Close()
	var nres int
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done"`) {
			continue // the trailing SweepSummary line
		}
		var res Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		nres++
		if res.Err != "" {
			t.Fatalf("sweep point failed: %q", sc.Text())
		}
		if res.Sampling == nil {
			t.Fatalf("sweep line missing sampling block: %q", sc.Text())
		}
	}
	if nres != 2 {
		t.Fatalf("sweep returned %d results, want 2", nres)
	}
	svc.runnersMu.Lock()
	nsamplers := len(svc.samplers)
	svc.runnersMu.Unlock()
	if nsamplers != 1 {
		t.Fatalf("%d sampler runners for one plan, want 1", nsamplers)
	}
	ts.Client().CloseIdleConnections()
}

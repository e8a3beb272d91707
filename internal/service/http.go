package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/snapshot"
)

// maxBodyBytes bounds request bodies; the schemas are tiny.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/run            one simulation        -> Result JSON (429 on overload;
//	                        ?wait=1 queues instead — the coordinator's sweep mode)
//	POST /v1/sweep          a grid of simulations -> NDJSON Result stream + summary
//	GET  /v1/stats          serving counters      -> Snapshot JSON
//	GET  /v1/healthz        readiness             -> 200 "ok" / 503 "draining"
//	GET  /v1/store/{kind}   one blob by ?key=, kind snapshot or stream (blob.Handler
//	PUT  /v1/store/{kind}   over Config.PublishCheckpoints/PublishStreams)
//	GET  /healthz           readiness             -> legacy alias of /v1/healthz
//	GET  /statsz            serving counters      -> Snapshot JSON (legacy alias)
//
// /v1/healthz is the single readiness signal load balancers and the cluster
// coordinator share: 200 while accepting, 503 once draining.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/stats", s.handleStatsz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("/v1/store/", blob.Handler(
		blob.Mount{Kind: snapshot.Codec.Kind, Store: s.cfg.PublishCheckpoints},
		blob.Mount{Kind: replay.Codec.Kind, Store: s.cfg.PublishStreams},
	))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a broken client connection is not a server error
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeServiceError maps service sentinel errors onto HTTP statuses.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		writeJSONError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrOverloaded):
		// Explicit backpressure: the admission queue is full. A worker
		// frees up within one backend run, so a one-second backoff is the
		// honest hint.
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSONError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away (or shutdown force-canceled the run); any
		// status written here goes nowhere, but 503 is the right record.
		writeJSONError(w, http.StatusServiceUnavailable, err)
	default:
		writeJSONError(w, http.StatusInternalServerError, err)
	}
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq RunRequest
	if !decodeJSON(w, r, &rq) {
		return
	}
	// ?wait=1 selects the queueing admission policy: the cluster
	// coordinator's sweep fan-out is a batch client that wants the point,
	// not a latency SLO, so it queues (like a local sweep's points) instead
	// of bouncing with 429.
	res, err := s.Do(r.Context(), rq, r.URL.Query().Get("wait") == "1")
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleSweep streams the grid's results as NDJSON in completion order,
// followed by one SweepSummary line. Sweep points go through the same
// cache/coalesce/pool path as single runs but queue (bounded by the sweep's
// own concurrency, one pool's worth) instead of bouncing with 429 — a sweep
// is a batch client that wants the grid, not a latency SLO. If the client
// disconnects mid-stream, the request context cancels the remaining runs.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	if !decodeJSON(w, r, &sr) {
		return
	}
	reqs := sr.expand()
	if len(reqs) == 0 {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("%w: empty sweep grid", ErrBadRequest))
		return
	}
	if len(reqs) > s.cfg.MaxSweepPoints {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Errorf("%w: sweep grid has %d points, cap is %d", ErrBadRequest, len(reqs), s.cfg.MaxSweepPoints))
		return
	}
	if s.Draining() {
		writeServiceError(w, ErrDraining)
		return
	}

	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Launch grid points with at most one worker pool's worth in flight;
	// results stream back in completion order.
	results := make(chan *Result, s.cfg.Workers)
	go func() {
		defer close(results)
		sem := make(chan struct{}, s.cfg.Workers)
		var wg sync.WaitGroup
		for _, rq := range reqs {
			// Waiting for a launch slot races against the client hanging
			// up; checking only at the loop top would leave this goroutine
			// blocked on a slot it will never use.
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break // client gone: stop launching the rest of the grid
			}
			wg.Add(1)
			go func(rq RunRequest) {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := s.Do(ctx, rq, true)
				if err != nil {
					res = &Result{Workload: rq.Workload, Config: rq.Config + "/" + rq.Mem, Err: err.Error()}
				}
				results <- res
			}(rq)
		}
		wg.Wait()
	}()

	enc := json.NewEncoder(w)
	t0 := time.Now()
	sum := SweepSummary{Done: true, Runs: len(reqs)}
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
		if !sr.Stats {
			line = res.withoutStats()
		}
		// Encode errors mean the client hung up; keep draining results so
		// the launcher and its workers can finish.
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Points never launched (client disconnect) count as errors.
	sum.Errors += sum.Runs - sum.OK - sum.Errors
	sum.ElapsedMS = float64(time.Since(t0)) / float64(time.Millisecond)
	_ = enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

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

const (
	// maxBodyBytes bounds request bodies; the schemas are tiny.
	maxBodyBytes = 1 << 20
	// maxSweepPoints bounds a single sweep's grid.
	maxSweepPoints = 4096
)

// Node is what the /v1 front end serves: a Service, or a cluster
// coordinator that routes to a fleet of them. A client cannot tell the two
// apart.
type Node interface {
	// Do runs one request; wait queues it behind a full admission queue
	// instead of refusing it with ErrOverloaded.
	Do(ctx context.Context, rq RunRequest, wait bool) (*Result, error)
	// Sweep admits one sweep of n points, or refuses it (ErrDraining). It
	// returns how many points may run at once and the function that runs
	// one; the front end calls done once the last point has returned.
	Sweep(n int) (width int, point func(context.Context, RunRequest) (*Result, error), done func(), err error)
	// Draining reports whether the node refuses new work.
	Draining() bool
	// StatsPayload is the /v1/stats body.
	StatsPayload() any
}

// A StatusError is a failure that carries the HTTP status its client sees
// and, when RetryAfter is set, a Retry-After hint. The service's sentinel
// errors are StatusErrors, and so are a cluster coordinator's proxy
// failures, so one mapping (WriteError) serves both node kinds.
type StatusError struct {
	Status     int
	RetryAfter string
	Msg        string
}

func (e *StatusError) Error() string { return e.Msg }

// Handler returns the service's HTTP API: the /v1 front end over this
// service, publishing Config.PublishCheckpoints and PublishStreams.
func (s *Service) Handler() http.Handler {
	return NewMux(s, s.cfg.PublishCheckpoints, s.cfg.PublishStreams)
}

// NewMux returns the /v1 front end over n, with n's checkpoint and stream
// stores mounted for cluster peers:
//
//	POST /v1/run            one simulation        -> Result JSON (429 on overload;
//	                        ?wait=1 queues instead — the coordinator's sweep mode)
//	POST /v1/sweep          a grid of simulations -> NDJSON Result stream + summary
//	GET  /v1/stats          serving counters      -> n.StatsPayload() JSON
//	GET  /v1/healthz        readiness             -> 200 "ok" / 503 "draining"
//	GET  /v1/store/{kind}   one blob by ?key=, kind snapshot or stream (blob.Handler
//	PUT  /v1/store/{kind}   over checkpoints and streams)
//	GET  /healthz           readiness             -> legacy alias of /v1/healthz
//	GET  /statsz            serving counters      -> legacy alias of /v1/stats
//
// /v1/healthz is the single readiness signal load balancers and the cluster
// coordinator share: 200 while accepting, 503 once draining. A coordinator
// adds its registration routes to the returned mux.
func NewMux(n Node, checkpoints, streams blob.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var rq RunRequest
		if !decodeJSON(w, r, &rq) {
			return
		}
		// ?wait=1 selects the queueing admission policy: the cluster
		// coordinator's sweep fan-out is a batch client that wants the
		// point, not a latency SLO, so it queues (like a local sweep's
		// points) instead of bouncing with 429.
		res, err := n.Do(r.Context(), rq, r.URL.Query().Get("wait") == "1")
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var sr SweepRequest
		if decodeJSON(w, r, &sr) {
			sweep(r.Context(), w, n, sr)
		}
	})
	healthz := func(w http.ResponseWriter, r *http.Request) {
		if n.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
	stats := func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, n.StatsPayload())
	}
	mux.HandleFunc("GET /v1/stats", stats)
	mux.HandleFunc("GET /v1/healthz", healthz)
	mux.Handle("/v1/store/", blob.Handler(
		blob.Mount{Kind: snapshot.Codec.Kind, Store: checkpoints},
		blob.Mount{Kind: replay.Codec.Kind, Store: streams},
	))
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /statsz", stats)
	return mux
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, &StatusError{Status: http.StatusBadRequest, Msg: "decoding request: " + err.Error()})
		return false
	}
	return true
}

// WriteJSON answers with status and v as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a broken client connection is not a server error
}

// WriteError answers with err as {"error": ...} under err's status: the
// StatusError in its chain decides, a canceled run is 503, and anything
// else is 500.
func WriteError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var se *StatusError
	switch {
	case errors.As(err, &se):
		status = se.Status
		if se.RetryAfter != "" {
			w.Header().Set("Retry-After", se.RetryAfter)
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away (or shutdown force-canceled the run); any
		// status written here goes nowhere, but 503 is the right record.
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// sweep streams the grid's results as NDJSON in completion order, followed
// by one SweepSummary line. Each point goes to the node as expanded, never
// as a normalized copy: normalization sets a sampled request's Insts to the
// plan span, so normalizing twice would reject it. Sweep points queue
// (bounded by the node's width) instead of bouncing with 429 — a sweep is a
// batch client that wants the grid, not a latency SLO. If the client
// disconnects mid-stream, the request context cancels the remaining runs.
func sweep(ctx context.Context, w http.ResponseWriter, n Node, sr SweepRequest) {
	reqs := sr.Expand()
	if len(reqs) == 0 {
		WriteError(w, fmt.Errorf("%w: empty sweep grid", ErrBadRequest))
		return
	}
	if len(reqs) > maxSweepPoints {
		WriteError(w, fmt.Errorf("%w: sweep grid has %d points, cap is %d", ErrBadRequest, len(reqs), maxSweepPoints))
		return
	}
	width, point, done, err := n.Sweep(len(reqs))
	if err != nil {
		WriteError(w, err)
		return
	}
	defer done()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Launch grid points with at most width in flight; results stream back
	// in completion order.
	results := make(chan *Result, width)
	go func() {
		defer close(results)
		sem := make(chan struct{}, width)
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
				res, err := point(ctx, rq)
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

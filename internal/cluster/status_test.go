package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sfcmdt/internal/cluster"
	"sfcmdt/internal/service"
)

// TestCoordinatorStatuses pins the status and Retry-After hint a client sees
// from the coordinator for each way a proxied run can fail, and that a failed
// sweep point reads as it would from a worker. Draining (503) is pinned by
// TestCoordinatorDrainRefusesNewWork.
func TestCoordinatorStatuses(t *testing.T) {
	// A worker that is alive (its health probe answers 200) but refuses
	// every run with 429, without a Retry-After of its own.
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded: admission queue full"}` + "\n"))
			return
		}
		w.Write([]byte("ok\n"))
	}))
	t.Cleanup(overloaded.Close)
	// A worker that registered and then died: every connection is refused.
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	dead := deadSrv.URL
	deadSrv.Close()

	// The failed line a worker streams when its backend fails the grid's
	// one point.
	const grid = `{"workloads":["gzip"],"insts":3000}`
	failing := service.New(service.Config{Backend: func(context.Context, service.RunRequest) (*service.Result, error) {
		return nil, errors.New("backend failed")
	}})
	fsrv := httptest.NewServer(failing.Handler())
	t.Cleanup(fsrv.Close)
	t.Cleanup(func() { failing.BeginDrain() })
	resp, err := http.Post(fsrv.URL+"/v1/sweep", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	workerLine := failedLine(t, resp.Body)
	resp.Body.Close()

	const run = `{"workload":"gzip","insts":3000}`
	for _, tc := range []struct {
		name       string
		worker     string // the one registered worker; "" registers none
		path, body string
		status     int
		retryAfter string
		line       string // a sweep's failed point line, error text cut
	}{
		{"unknown workload", "", "/v1/run", `{"workload":"no-such-workload"}`, http.StatusBadRequest, "", ""},
		{"no worker registered", "", "/v1/run", run, http.StatusServiceUnavailable, "1", ""},
		{"worker always 429", overloaded.URL, "/v1/run", run, http.StatusTooManyRequests, "1", ""},
		{"worker dead", dead, "/v1/run", run, http.StatusBadGateway, "", ""},
		{"failed sweep point", dead, "/v1/sweep", grid, http.StatusOK, "", workerLine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Probes stay off the request path: every outcome below comes
			// from the proxied run's own attempts.
			coord := cluster.New(cluster.Config{ProbeInterval: time.Hour, RetryBase: time.Millisecond})
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()
			defer coord.Close(context.Background())
			if tc.worker != "" {
				coord.Register(tc.worker)
			}
			resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			if tc.line != "" {
				if got := failedLine(t, resp.Body); got != tc.line {
					t.Errorf("failed point line\n got  %s\n want %s", got, tc.line)
				}
			}
		})
	}
}

// failedLine decodes a sweep stream's first line, which must be a failed
// point, and returns it with its error text cut: the text names the cause,
// which differs between node kinds, while the point's naming must not.
func failedLine(t *testing.T, body io.Reader) string {
	t.Helper()
	var res service.Result
	if err := json.NewDecoder(body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Err == "" {
		t.Fatalf("sweep point did not fail: %+v", res)
	}
	res.Err = ""
	return string(mustJSON(t, res))
}

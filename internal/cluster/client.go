package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sfcmdt/internal/service"
)

// defaultHTTP serves every cluster-internal call. The generous timeout is a
// backstop only; per-attempt deadlines come from the coordinator's
// requestTimeout via context.
var defaultHTTP = &http.Client{Timeout: 5 * time.Minute}

// RemoteError is a non-200 HTTP response from a peer — the worker answered,
// so the node is alive, but this request was refused or failed there.
type RemoteError struct {
	Status int
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote status %d: %s", e.Status, e.Msg)
}

// Retryable reports whether rerouting the request to another worker can
// help. A 400 is a property of the request (every worker normalizes
// identically, so every worker would refuse it); anything else — 429
// backpressure, 503 drain, 5xx — is a property of the node that answered.
func (e *RemoteError) Retryable() bool {
	return e.Status != http.StatusBadRequest
}

// retryable classifies an error from a worker call: RemoteErrors decide for
// themselves; everything else (connection refused/reset, timeout) is a
// node-level failure worth rerouting. The caller is responsible for checking
// its own context before retrying — a parent cancellation is terminal even
// though the error it surfaces as looks transport-shaped.
func retryable(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Retryable()
	}
	return true
}

// transportError reports whether err indicates the node itself failed
// (connection-level), as opposed to an HTTP response that proves liveness.
// Only transport errors count toward health ejection.
func transportError(err error) bool {
	var re *RemoteError
	return !errors.As(err, &re)
}

// baseURL normalizes an address into an http:// base with no trailing slash.
func baseURL(addr string) string {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// WorkerClient speaks the service's HTTP API to one worker node.
type WorkerClient struct {
	Addr string // host:port or full base URL
}

// remoteErr decodes the service's {"error": ...} body into a RemoteError.
func remoteErr(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(b, &body) == nil && body.Error != "" {
		msg = body.Error
	}
	return &RemoteError{Status: resp.StatusCode, Msg: msg}
}

// Run executes one request on the worker, as the client sent it: the
// worker normalizes it itself. wait selects the queueing admission policy
// (?wait=1) used for sweep points; without it the worker's 429
// backpressure passes through as a retryable RemoteError.
func (w *WorkerClient) Run(ctx context.Context, rq service.RunRequest, wait bool) (*service.Result, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return nil, err
	}
	url := baseURL(w.Addr) + "/v1/run"
	if wait {
		url += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := defaultHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteErr(resp)
	}
	var res service.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return &res, nil
}

// Healthz probes the worker's readiness endpoint: nil when the worker is
// accepting, an error when unreachable or draining.
func (w *WorkerClient) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(w.Addr)+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := defaultHTTP.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return remoteErr(resp)
	}
	return nil
}

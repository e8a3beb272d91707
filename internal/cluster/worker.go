package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// postJSON posts a small JSON body and drains the response.
func postJSON(ctx context.Context, url string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
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

// Join runs a worker's registration/heartbeat loop against a coordinator:
// register immediately, re-register every interval (the heartbeat doubles as
// instant readmission after an ejection — see Coordinator.Register), and
// deregister gracefully when ctx is canceled. Blocks until ctx is done; run
// it in a goroutine next to the worker's HTTP server and cancel it before
// draining, so the coordinator stops routing new points here first.
//
// A failed heartbeat is logged and retried at the next tick rather than
// escalated: the coordinator may be restarting, and its own health probes
// (plus this loop's next successful POST) converge membership either way.
func Join(ctx context.Context, coordinator, advertise string, interval time.Duration, logf func(string, ...any)) {
	if interval <= 0 {
		interval = time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	regURL := baseURL(coordinator) + "/v1/register"
	body := map[string]string{"addr": advertise}
	beat := func() error {
		bctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		return postJSON(bctx, regURL, body)
	}
	ok := false // last heartbeat outcome, to log only transitions
	if err := beat(); err != nil {
		logf("cluster: register with %s failed (will retry): %v", coordinator, err)
	} else {
		ok = true
		logf("cluster: registered with %s as %s", coordinator, advertise)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			// Graceful leave needs its own context: ours is already dead.
			dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err := postJSON(dctx, baseURL(coordinator)+"/v1/deregister", body)
			cancel()
			if err != nil {
				logf("cluster: deregister from %s failed: %v", coordinator, err)
			} else {
				logf("cluster: deregistered from %s", coordinator)
			}
			return
		case <-t.C:
			err := beat()
			if err != nil && ok {
				logf("cluster: heartbeat to %s failed (will retry): %v", coordinator, err)
			}
			if err == nil && !ok {
				logf("cluster: re-registered with %s as %s", coordinator, advertise)
			}
			ok = err == nil
		}
	}
}

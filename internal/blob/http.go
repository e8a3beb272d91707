package blob

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// hashHeader carries a served blob's content hash; Remote rejects a body
// that does not match it.
const hashHeader = "X-Content-SHA256"

// defaultClient serves Remotes that were handed no client. The generous
// timeout is a backstop, not a deadline anyone should meet.
var defaultClient = &http.Client{Timeout: 5 * time.Minute}

// Remote is a Store over a peer's /v1/store/{kind} API: a worker's published
// tier, or the coordinator's fan-out across the fleet. Bytes that cross the
// wire are verified before they are returned: the body must match the
// X-Content-SHA256 header the peer sent, and the Kind's decoder must accept
// it. A mismatch of either is an error, never a hit.
type Remote struct {
	Base string       // peer base URL; a bare host:port means http://
	Kind Kind         // names the endpoint and checks fetched blobs
	HTTP *http.Client // nil uses a client with a 5-minute backstop timeout
}

func (r *Remote) url(key string) string {
	base := strings.TrimSuffix(r.Base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base + "/v1/store/" + r.Kind.Name + "?" + url.Values{"key": {key}}.Encode()
}

func (r *Remote) do(method, key string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, r.url(key), body)
	if err != nil {
		return nil, err
	}
	if r.HTTP != nil {
		return r.HTTP.Do(req)
	}
	return defaultClient.Do(req)
}

// Get implements Store; a 404 is a miss.
func (r *Remote) Get(key string) ([]byte, bool, error) {
	resp, err := r.do(http.MethodGet, key, nil)
	if err != nil {
		return nil, false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, statusError(resp)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		return nil, false, err
	}
	if len(b) > maxBlobBytes {
		return nil, false, fmt.Errorf("blob: %s %s: blob exceeds %d bytes", r.Kind.Name, key, maxBlobBytes)
	}
	if got, want := contentHash(b), resp.Header.Get(hashHeader); got != want {
		return nil, false, fmt.Errorf("blob: %s %s: body hash %.12s does not match %s %q", r.Kind.Name, key, got, hashHeader, want)
	}
	if err := r.Kind.Check(b); err != nil {
		return nil, false, fmt.Errorf("blob: %s %s: %w", r.Kind.Name, key, err)
	}
	return b, true, nil
}

// Put implements Store.
func (r *Remote) Put(key string, b []byte) error {
	resp, err := r.do(http.MethodPut, key, bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// drain lets the client reuse the connection.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// statusError reports a refused request with the peer's {"error": ...}
// message when it sent one.
func statusError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(b, &body) == nil && body.Error != "" {
		msg = body.Error
	}
	return fmt.Errorf("blob: %s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, msg)
}

// Mount serves one Kind from a Store. A nil Store answers every GET with 404
// and every PUT with 501.
type Mount struct {
	Kind  Kind
	Store Store
}

// Handler serves the /v1/store API over mounts, one per kind:
//
//	GET /v1/store/{kind}?key=K  the blob under K with its X-Content-SHA256 (404 on a miss)
//	PUT /v1/store/{kind}?key=K  store the body under K (204)
//
// An empty key or one with a newline is 400, and so is a PUT body over 64 MiB
// or one the kind's decoder rejects: a node never stores bytes it cannot
// parse. An unmounted kind is 404. Mount the handler at "/v1/store/".
func Handler(mounts ...Mount) http.Handler {
	byName := make(map[string]Mount, len(mounts))
	for _, m := range mounts {
		byName[m.Kind.Name] = m
	}
	serve := func(w http.ResponseWriter, r *http.Request) {
		m, ok := byName[r.PathValue("kind")]
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("blob: no store kind %q", r.PathValue("kind")))
			return
		}
		key := r.URL.Query().Get("key")
		if err := checkKey(key); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if m.Store == nil {
			status := http.StatusNotFound // to a reader, simply a miss
			if r.Method == http.MethodPut {
				status = http.StatusNotImplemented
			}
			writeError(w, status, fmt.Errorf("blob: no %s store on this node", m.Kind.Name))
			return
		}
		if r.Method == http.MethodGet {
			b, ok, err := m.Store.Get(key)
			switch {
			case err != nil:
				writeError(w, http.StatusInternalServerError, err)
			case !ok:
				writeError(w, http.StatusNotFound, fmt.Errorf("blob: no %s under %q", m.Kind.Name, key))
			default:
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set(hashHeader, contentHash(b))
				w.Header().Set("Content-Length", strconv.Itoa(len(b)))
				_, _ = w.Write(b)
			}
			return
		}
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
		if err == nil {
			err = m.Kind.Check(b)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("blob: %s body: %w", m.Kind.Name, err))
			return
		}
		if err := m.Store.Put(key, b); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/{kind}", serve)
	mux.HandleFunc("PUT /v1/store/{kind}", serve)
	return mux
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

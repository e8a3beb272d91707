package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/cluster"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/service"
	"sfcmdt/internal/snapshot"
)

// workerNode is one live worker: its service (for counter assertions), its
// HTTP server, and the kill switch the failure tests pull.
type workerNode struct {
	svc *service.Service
	srv *httptest.Server
}

// kill severs the worker abruptly: no new connections, in-flight ones reset.
// This is the crash the reroute tests simulate — not a graceful drain.
func (w *workerNode) kill() {
	w.srv.Listener.Close()
	w.srv.CloseClientConnections()
}

// newCluster stands up a coordinator and n workers wired exactly as
// cmd/sfcserve wires them: each worker publishes a local store tier and
// reads through a fleet-backed tiered store routed via the coordinator.
func newCluster(t *testing.T, n int, ccfg cluster.Config) (*cluster.Coordinator, *httptest.Server, []*workerNode) {
	t.Helper()
	if ccfg.ProbeInterval == 0 {
		ccfg.ProbeInterval = 50 * time.Millisecond
	}
	if ccfg.ProbeFailures == 0 {
		ccfg.ProbeFailures = 1
	}
	if ccfg.RetryBase == 0 {
		ccfg.RetryBase = 5 * time.Millisecond
	}
	coord := cluster.New(ccfg)
	csrv := httptest.NewServer(coord.Handler())
	t.Cleanup(csrv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Close(ctx)
	})
	var nodes []*workerNode
	for i := 0; i < n; i++ {
		localCkpts, localStreams := blob.NewMem(), blob.NewMem()
		svc := service.New(service.Config{
			Workers:            2,
			Checkpoints:        snapshot.Codec.Over(&blob.Tiered{Local: localCkpts, Remote: &blob.Remote{Base: csrv.URL, Kind: snapshot.Codec.Kind}}),
			Streams:            replay.Codec.Over(&blob.Tiered{Local: localStreams, Remote: &blob.Remote{Base: csrv.URL, Kind: replay.Codec.Kind}}),
			PublishCheckpoints: localCkpts,
			PublishStreams:     localStreams,
		})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(func() { svc.BeginDrain() })
		coord.Register(srv.URL)
		nodes = append(nodes, &workerNode{svc: svc, srv: srv})
	}
	return coord, csrv, nodes
}

func postRun(t *testing.T, base string, rq service.RunRequest) (*service.Result, int) {
	t.Helper()
	body, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var res service.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return &res, resp.StatusCode
}

// sweepLines posts a sweep and returns the result lines and the summary.
func sweepLines(t *testing.T, base string, sr service.SweepRequest) ([]service.Result, service.SweepSummary) {
	t.Helper()
	body, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var lines []service.Result
	var sum service.SweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal(sc.Bytes(), &probe) == nil && probe.Done {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var res service.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("decoding line %q: %v", sc.Text(), err)
		}
		lines = append(lines, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if !sum.Done {
		t.Fatal("sweep stream ended without a summary line")
	}
	return lines, sum
}

// canonicalize renders result lines the way sfcload -canonical does: strip
// serving metadata, marshal, sort.
func canonicalize(t *testing.T, lines []service.Result) []string {
	t.Helper()
	out := make([]string, 0, len(lines))
	for i := range lines {
		b, err := json.Marshal(lines[i].Canonical())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

func TestClusterRunRoutesByPlacementKey(t *testing.T) {
	_, csrv, _ := newCluster(t, 2, cluster.Config{})

	// Same (workload, insts) under different timing configurations must
	// land on one node: the placement key deliberately excludes the config
	// axes so every configuration reuses that node's materialized stream.
	var node string
	for _, mem := range []string{"mdtsfc", "lsq", "mdtsfc", "mvsfc"} {
		res, status := postRun(t, csrv.URL, service.RunRequest{Workload: "gzip", Mem: mem, Insts: 3_000})
		if status != http.StatusOK {
			t.Fatalf("run status %d", status)
		}
		if res.Node == "" {
			t.Fatal("coordinator did not stamp the executing node")
		}
		if node == "" {
			node = res.Node
		} else if res.Node != node {
			t.Fatalf("placement key split across nodes: %s then %s", node, res.Node)
		}
	}

	// A bad request is refused with 400 by the fleet exactly like by a
	// single node — and without burning retries.
	if _, status := postRun(t, csrv.URL, service.RunRequest{Workload: "no-such-workload"}); status != http.StatusBadRequest {
		t.Fatalf("unknown workload -> %d, want 400", status)
	}
}

func TestClusterSweepMaterializesOncePerKey(t *testing.T) {
	_, csrv, nodes := newCluster(t, 2, cluster.Config{})

	sr := service.SweepRequest{
		Workloads: []string{"gzip", "mcf", "swim"},
		Mems:      []string{"mdtsfc", "lsq"},
		Insts:     3_000,
	}
	lines, sum := sweepLines(t, csrv.URL, sr)
	if sum.Errors != 0 || sum.OK != sum.Runs || sum.Runs != 6 {
		t.Fatalf("summary %+v, want 6/6 ok", sum)
	}

	// Every line names its node, and all configurations of one workload ran
	// on the same node (the sweep pin).
	byWorkload := map[string]string{}
	for _, res := range lines {
		if res.Err != "" {
			t.Fatalf("line errored: %s", res.Err)
		}
		if res.Node == "" {
			t.Fatal("sweep line missing node stamp")
		}
		if prev, ok := byWorkload[res.Workload]; ok && prev != res.Node {
			t.Fatalf("workload %s split across %s and %s", res.Workload, prev, res.Node)
		}
		byWorkload[res.Workload] = res.Node
	}

	// The fleet paid exactly one functional pass per workload: per-node
	// singleflight plus placement routing makes the fleet-wide sum equal
	// the workload count.
	var materialized uint64
	for _, n := range nodes {
		materialized += n.svc.Stats().ReplayMaterialized
	}
	if materialized != 3 {
		t.Fatalf("fleet materialized %d streams for 3 workloads", materialized)
	}
}

func TestClusterReroutesAroundDeadWorker(t *testing.T) {
	coord, csrv, nodes := newCluster(t, 2, cluster.Config{
		// Health probes off the hot path: the reroute below must come from
		// the request path's own failure handling.
		ProbeInterval: time.Hour,
	})

	rq := service.RunRequest{Workload: "gzip", Insts: 3_000}
	res, status := postRun(t, csrv.URL, rq)
	if status != http.StatusOK {
		t.Fatalf("run status %d", status)
	}
	owner := res.Node

	var dead, alive *workerNode
	for _, n := range nodes {
		if n.srv.URL == owner {
			dead = n
		} else {
			alive = n
		}
	}
	if dead == nil || alive == nil {
		t.Fatalf("owner %q is not one of the registered workers", owner)
	}
	dead.kill()

	// The same request now reroutes to the survivor — transparently to the
	// client, and bit-identically (deterministic keyed run).
	res2, status := postRun(t, csrv.URL, rq)
	if status != http.StatusOK {
		t.Fatalf("rerun after kill: status %d", status)
	}
	if res2.Node != alive.srv.URL {
		t.Fatalf("rerun ran on %s, want survivor %s", res2.Node, alive.srv.URL)
	}
	if !bytes.Equal(mustJSON(t, res.Canonical()), mustJSON(t, res2.Canonical())) {
		t.Fatal("rerouted rerun differs from the original run")
	}

	st := coord.ClusterStats()
	if st.Rerouted == 0 {
		t.Fatalf("stats %+v: expected a recorded reroute", st)
	}
	if st.Ejected == 0 || st.HealthyWorkers != 1 {
		t.Fatalf("stats %+v: dead worker should be ejected by the failed attempt", st)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClusterSweepSurvivesMidSweepKill(t *testing.T) {
	_, csrv, nodes := newCluster(t, 2, cluster.Config{ProbeInterval: time.Hour})

	// Single-node reference for the byte-identical claim.
	ref := service.New(service.Config{Workers: 2})
	refSrv := httptest.NewServer(ref.Handler())
	t.Cleanup(refSrv.Close)
	t.Cleanup(func() { ref.BeginDrain() })

	sr := service.SweepRequest{
		Workloads: []string{"gzip", "mcf", "swim", "bzip2"},
		Mems:      []string{"mdtsfc", "lsq"},
		Insts:     20_000,
	}
	wantLines, wantSum := sweepLines(t, refSrv.URL, sr)
	if wantSum.Errors != 0 {
		t.Fatalf("reference sweep errored: %+v", wantSum)
	}

	// Stream the cluster sweep and kill one worker after the first line:
	// its pinned groups re-pin to the survivor and the lost points re-run.
	body := mustJSON(t, sr)
	resp, err := http.Post(csrv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var lines []service.Result
	var sum service.SweepSummary
	killed := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Done bool   `json:"done"`
			Node string `json:"node"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("decoding %q: %v", sc.Text(), err)
		}
		if probe.Done {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !killed {
			// Kill the node that served the first line — it provably owns
			// in-progress pin groups.
			for _, n := range nodes {
				if n.srv.URL == probe.Node {
					n.kill()
					killed = true
				}
			}
			if !killed {
				t.Fatalf("first line's node %q not in the fleet", probe.Node)
			}
		}
		var res service.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if !killed {
		t.Fatal("no result line ever arrived")
	}
	if sum.Errors != 0 || sum.OK != sum.Runs || sum.Runs != len(wantLines) {
		t.Fatalf("cluster summary after mid-sweep kill: %+v (reference %+v)", sum, wantSum)
	}

	got := canonicalize(t, lines)
	want := canonicalize(t, wantLines)
	if len(got) != len(want) {
		t.Fatalf("cluster sweep returned %d lines, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("canonical line %d differs after reroute:\n cluster  %s\n single   %s", i, got[i], want[i])
		}
	}
}

func TestCoordinatorStoreFanout(t *testing.T) {
	_, csrv, nodes := newCluster(t, 2, cluster.Config{})

	// Publish a stream on one worker's local tier only; a fleet Get through
	// the coordinator must find it wherever it lives.
	k := replay.Key{Workload: "gzip", Span: 2_000}
	s := testStream(t, "gzip", 2_000)
	if err := remoteStreams(nodes[0].srv.URL).Put(k, s); err != nil {
		t.Fatal(err)
	}
	fleet := remoteStreams(csrv.URL)
	got, ok, err := fleet.Get(k)
	if err != nil || !ok {
		t.Fatalf("fleet Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Encode(), s.Encode()) {
		t.Fatal("fleet Get returned a different stream")
	}

	// A fleet Put lands on some worker's published tier and is fetchable
	// from the fleet afterwards.
	k2 := replay.Key{Workload: "mcf", Span: 2_000}
	s2 := testStream(t, "mcf", 2_000)
	if err := fleet.Put(k2, s2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := fleet.Get(k2); err != nil || !ok {
		t.Fatalf("fleet Get after fleet Put: ok=%v err=%v", ok, err)
	}
	found := 0
	for _, n := range nodes {
		if _, ok, _ := remoteStreams(n.srv.URL).Get(k2); ok {
			found++
		}
	}
	if found == 0 {
		t.Fatal("fleet Put reached no worker's published tier")
	}

	// A key nobody holds is a clean 404-backed miss.
	if _, ok, err := fleet.Get(replay.Key{Workload: "vpr_place", Span: 999}); err != nil || ok {
		t.Fatalf("fleet Get of absent key: ok=%v err=%v", ok, err)
	}
}

func TestCoordinatorDrainRefusesNewWork(t *testing.T) {
	coord, csrv, _ := newCluster(t, 1, cluster.Config{})

	if resp, err := http.Get(csrv.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	coord.BeginDrain()
	resp, err := http.Get(csrv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if _, status := postRun(t, csrv.URL, service.RunRequest{Workload: "gzip", Insts: 3_000}); status != http.StatusServiceUnavailable {
		t.Fatalf("run while draining = %d, want 503", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestClusterStatsShape(t *testing.T) {
	_, csrv, _ := newCluster(t, 2, cluster.Config{})
	if _, status := postRun(t, csrv.URL, service.RunRequest{Workload: "gzip", Insts: 3_000}); status != http.StatusOK {
		t.Fatalf("run status %d", status)
	}
	resp, err := http.Get(csrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.HealthyWorkers != 2 || st.TotalWorkers != 2 {
		t.Fatalf("stats %+v, want 2/2 workers", st)
	}
	if st.Runs == 0 {
		t.Fatalf("stats %+v, want the proxied run counted", st)
	}
	var routed uint64
	for _, w := range st.Workers {
		if !strings.HasPrefix(w.Addr, "http://") {
			t.Fatalf("worker addr %q not the registered URL", w.Addr)
		}
		routed += w.Requests
	}
	if routed == 0 {
		t.Fatal("no per-worker request counts recorded")
	}
}

// Command sfcload drives a running sfcserve with a closed-loop burst of
// /v1/run requests sampled round-robin from a small grid, then reports
// latency percentiles, throughput, and how the server sourced each response
// (backend run, cache hit, or coalesced onto an in-flight run) — the repo's
// closed-loop serving benchmark.
//
// Usage:
//
//	sfcload -addr HOST:PORT[,HOST:PORT...] [-c 8] [-n 0] [-d 3s] [-insts N]
//	        [-workloads gzip,mcf] [-configs baseline] [-mems mdtsfc]
//	        [-preds ...] [-bpreds gshare,tage] [-prefetches none,stride]
//	        [-preprobes off,on] [-min-hit-rate -1] [-wait-ready 10s]
//
// -addr accepts a comma-separated list of servers (or one cluster
// coordinator); burst requests round-robin across them and the report breaks
// completions down per node — for cluster runs, by the worker that actually
// executed (the coordinator stamps each result's "node" field).
//
// With -n 0 the burst runs for -d; otherwise exactly -n requests are sent.
// -min-hit-rate R exits nonzero unless (cached+coalesced)/completed >= R,
// which lets CI assert that coalescing and caching actually serve repeat
// traffic without backend runs.
//
// Two further modes serve scripting: -sweep POSTs the grid axes as one
// /v1/sweep and prints its summary; -stats GETs /v1/stats and prints the
// serving counters as grep-friendly "key value" lines (the serve smoke test
// asserts the replay substrate's one-materialize-per-workload signature
// this way). -sweep -canonical strips serving metadata (cached/coalesced
// provenance, latency, node) from every line, sorts the results, and zeroes
// the summary's volatile fields — two sweeps of the same grid then compare
// byte-for-byte whether they ran on one node or across a rerouting cluster,
// which is how the cluster smoke test asserts bit-identical reroutes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sfcmdt/internal/service"
)

type counters struct {
	mu        sync.Mutex
	latencies []time.Duration
	ok        int
	cached    int
	coalesced int
	backend   int
	rejected  int // 429
	errors    int
	perNode   map[string]int // completions by executing node
}

func main() {
	addr := flag.String("addr", "", "server address(es), comma-separated (host:port or http://host:port); required")
	conc := flag.Int("c", 8, "concurrent closed-loop clients")
	n := flag.Int("n", 0, "total requests (0 = run for -d)")
	dur := flag.Duration("d", 3*time.Second, "burst duration when -n is 0")
	insts := flag.Uint64("insts", 0, "per-run instruction budget (0 = server default)")
	workloads := flag.String("workloads", "gzip,mcf", "comma-separated workload axis")
	configs := flag.String("configs", "baseline", "comma-separated config axis")
	mems := flag.String("mems", "mdtsfc", "comma-separated memory-subsystem axis")
	preds := flag.String("preds", "", "comma-separated predictor axis (empty = per-config default)")
	bpreds := flag.String("bpreds", "", "comma-separated branch-predictor axis: gshare,tage (empty = gshare)")
	prefetches := flag.String("prefetches", "", "comma-separated prefetcher axis: none,stride (empty = none)")
	preprobes := flag.String("preprobes", "", "comma-separated pre-probe axis: off,on (empty = off)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request timeout")
	waitReady := flag.Duration("wait-ready", 10*time.Second, "poll /healthz this long before the burst")
	minHitRate := flag.Float64("min-hit-rate", -1, "fail unless (cached+coalesced)/completed >= this (-1 disables)")
	showStatsz := flag.Bool("statsz", true, "print the server's /statsz after the burst")
	sweep := flag.Bool("sweep", false, "POST one /v1/sweep over the grid axes, print each line and the summary, and exit")
	canonical := flag.Bool("canonical", false, "with -sweep: strip serving metadata, sort result lines, zero volatile summary fields (for byte-comparing runs)")
	statsOnly := flag.Bool("stats", false, "GET /v1/stats and print the counters as 'key value' lines, then exit")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "sfcload: -addr is required")
		os.Exit(2)
	}
	var bases []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			a = "http://" + a
		}
		bases = append(bases, a)
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "sfcload: -addr is required")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}

	for _, base := range bases {
		if err := waitHealthy(client, base, *waitReady); err != nil {
			fmt.Fprintf(os.Stderr, "sfcload: %v\n", err)
			os.Exit(1)
		}
	}

	if *statsOnly {
		stats, err := fetchStats(client, bases[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfcload: stats: %v\n", err)
			os.Exit(1)
		}
		for _, kv := range stats {
			fmt.Printf("%s %s\n", kv[0], kv[1])
		}
		return
	}
	sr, err := sweepRequest(*workloads, *configs, *mems, *preds, *bpreds, *prefetches, *preprobes, *insts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcload: %v\n", err)
		os.Exit(2)
	}
	if *sweep {
		if err := doSweep(client, bases[0], sr, *canonical); err != nil {
			fmt.Fprintf(os.Stderr, "sfcload: sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	grid := sr.Expand()
	bodies := make([][]byte, len(grid))
	for i, rq := range grid {
		b, err := json.Marshal(rq)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfcload: marshal: %v\n", err)
			os.Exit(1)
		}
		bodies[i] = b
	}

	var (
		cts  = counters{perNode: make(map[string]int)}
		seq  atomic.Int64
		wg   sync.WaitGroup
		stop = time.Now().Add(*dur)
	)
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if *n > 0 {
					if int(i) >= *n {
						return
					}
				} else if time.Now().After(stop) {
					return
				}
				base := bases[int(i)%len(bases)]
				doOne(client, base, bodies[int(i)%len(bodies)], &cts)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(&cts, elapsed)
	if *showStatsz {
		printServerLine(client, bases[0])
	}

	if cts.errors > 0 {
		fmt.Fprintf(os.Stderr, "sfcload: %d requests failed\n", cts.errors)
		os.Exit(1)
	}
	if *minHitRate >= 0 {
		rate := hitRate(&cts)
		if cts.ok == 0 || rate < *minHitRate {
			fmt.Fprintf(os.Stderr, "sfcload: hit rate %.2f below required %.2f\n", rate, *minHitRate)
			os.Exit(1)
		}
	}
}

func waitHealthy(client *http.Client, base string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %s: %v", d, err)
			}
			return fmt.Errorf("server not healthy after %s", d)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// preprobeBools parses the pre-probe axis ("off"/"on", also "false"/"true").
func preprobeBools(s string) ([]bool, error) {
	var out []bool
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "":
		case "off", "false":
			out = append(out, false)
		case "on", "true":
			out = append(out, true)
		default:
			return nil, fmt.Errorf("bad preprobe value %q (want off or on)", f)
		}
	}
	return out, nil
}

// sweepRequest builds the one grid both modes use from the axis flags:
// -sweep posts it, and a burst cycles through its expanded points. Empty
// axes take the server's defaults; empty workloads mean every workload.
func sweepRequest(workloads, configs, mems, preds, bpreds, prefetches, preprobes string, insts uint64) (service.SweepRequest, error) {
	split := func(s string) []string {
		var out []string
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f != "" {
				out = append(out, f)
			}
		}
		return out
	}
	pps, err := preprobeBools(preprobes)
	if err != nil {
		return service.SweepRequest{}, err
	}
	return service.SweepRequest{
		Workloads:  split(workloads),
		Configs:    split(configs),
		Mems:       split(mems),
		Preds:      split(preds),
		BPreds:     split(bpreds),
		Prefetches: split(prefetches),
		Preprobes:  pps,
		Insts:      insts,
	}, nil
}

func doOne(client *http.Client, base string, body []byte, cts *counters) {
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	lat := time.Since(t0)
	if err != nil {
		cts.mu.Lock()
		cts.errors++
		cts.mu.Unlock()
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	cts.mu.Lock()
	defer cts.mu.Unlock()
	cts.latencies = append(cts.latencies, lat)
	switch resp.StatusCode {
	case http.StatusOK:
		var res service.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			cts.errors++
			return
		}
		cts.ok++
		switch {
		case res.Cached:
			cts.cached++
		case res.Coalesced:
			cts.coalesced++
		default:
			cts.backend++
		}
		// A coordinator stamps the executing worker; a bare server doesn't,
		// so fall back to the node we targeted.
		node := res.Node
		if node == "" {
			node = strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
		}
		cts.perNode[node]++
	case http.StatusTooManyRequests:
		// Backpressure working as designed; counted, not an error.
		cts.rejected++
	default:
		cts.errors++
	}
}

func hitRate(cts *counters) float64 {
	if cts.ok == 0 {
		return 0
	}
	return float64(cts.cached+cts.coalesced) / float64(cts.ok)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func report(cts *counters, elapsed time.Duration) {
	sort.Slice(cts.latencies, func(i, j int) bool { return cts.latencies[i] < cts.latencies[j] })
	total := cts.ok + cts.rejected + cts.errors
	fmt.Printf("requests    %d in %.2fs (%.1f req/s)\n", total, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	fmt.Printf("completed   %d  (backend %d, cached %d, coalesced %d)\n", cts.ok, cts.backend, cts.cached, cts.coalesced)
	fmt.Printf("rejected    %d (429 backpressure)\n", cts.rejected)
	fmt.Printf("errors      %d\n", cts.errors)
	fmt.Printf("hit rate    %.1f%% served without a backend run\n", 100*hitRate(cts))
	fmt.Printf("latency     p50 %s  p95 %s  p99 %s  max %s\n",
		percentile(cts.latencies, 0.50), percentile(cts.latencies, 0.95),
		percentile(cts.latencies, 0.99), percentile(cts.latencies, 1.0))
	if len(cts.perNode) > 0 {
		nodes := make([]string, 0, len(cts.perNode))
		for n := range cts.perNode {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			fmt.Printf("node        %s %d\n", n, cts.perNode[n])
		}
	}
}

// doSweep posts the grid as one /v1/sweep, echoes each NDJSON line, and
// fails if any grid point errored or the summary never arrived. In canonical
// mode the echo is deferred: result lines are stripped of serving metadata,
// sorted, and printed before a summary whose volatile fields are zeroed.
func doSweep(client *http.Client, base string, sr service.SweepRequest, canonical bool) error {
	body, err := json.Marshal(sr)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	dec := json.NewDecoder(resp.Body)
	var sum *service.SweepSummary
	var canon []string
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		var maybe service.SweepSummary
		if json.Unmarshal(raw, &maybe) == nil && maybe.Done {
			sum = &maybe
			continue
		}
		if !canonical {
			fmt.Println(strings.TrimSpace(string(raw)))
			continue
		}
		var res service.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("decoding result line: %w", err)
		}
		b, err := json.Marshal(res.Canonical())
		if err != nil {
			return err
		}
		canon = append(canon, string(b))
	}
	if sum == nil {
		return fmt.Errorf("stream ended without a summary line")
	}
	if canonical {
		sort.Strings(canon)
		for _, line := range canon {
			fmt.Println(line)
		}
		// Cache/coalesce tallies and wall-clock depend on serving history,
		// not on what the grid computed.
		cs := *sum
		cs.Cached, cs.Coalesced, cs.ElapsedMS = 0, 0, 0
		b, err := json.Marshal(cs)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		b, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if sum.Errors > 0 || sum.OK != sum.Runs {
		return fmt.Errorf("sweep finished with %d/%d ok, %d errors", sum.OK, sum.Runs, sum.Errors)
	}
	return nil
}

// fetchStats GETs /v1/stats as "key value" pairs sorted by key. Decoding
// into a generic map reads a worker's and a coordinator's payload alike.
func fetchStats(client *http.Client, base string) ([][2]string, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var kv map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&kv); err != nil {
		return nil, err
	}
	out := make([][2]string, 0, len(kv))
	for k, v := range kv {
		out = append(out, [2]string{k, strings.TrimSpace(string(v))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// printServerLine prints the server's scalar counters on one line after a
// burst; lists, such as a coordinator's per-worker rows, are left to -stats.
func printServerLine(client *http.Client, base string) {
	stats, err := fetchStats(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfcload: stats: %v\n", err)
		return
	}
	var b strings.Builder
	for _, kv := range stats {
		if v := kv[1]; v != "" && v[0] != '[' && v[0] != '{' {
			fmt.Fprintf(&b, " %s=%s", kv[0], v)
		}
	}
	fmt.Printf("server     %s\n", b.String())
}

// Command sfcserve serves the simulator over HTTP: POST /v1/run executes
// (or serves from cache / coalesces onto) one simulation, POST /v1/sweep
// streams a figure-style grid as NDJSON, GET /healthz and GET /statsz
// report liveness and serving counters. SIGINT/SIGTERM drain gracefully:
// new requests are refused, in-flight runs finish (or are canceled at the
// drain deadline), then the process exits 0.
//
// Usage:
//
//	sfcserve [-addr 127.0.0.1:8080] [-addr-file PATH] [-workers N]
//	         [-queue N] [-cache N] [-default-insts N] [-max-insts N]
//	         [-max-ff N] [-sample-parallel N] [-checkpoint-dir DIR]
//	         [-replay-dir DIR] [-drain 15s]
//	         [-coordinator | -join URL] [-cluster-dir DIR] [-advertise ADDR]
//	         [-heartbeat 1s] [-probe-interval 1s] [-load-factor 1.25]
//
// -checkpoint-dir backs sampled requests' fast-forward warmup with an
// on-disk content-addressed checkpoint store, so the functional pass
// survives restarts and is shared across server processes; without it,
// checkpoints live in process memory.
//
// Full-detail runs draw their functional reference streams from a
// service-wide replay cache, so every point of a sweep pays one functional
// pass per workload (GET /v1/stats reports the hit/materialize counters).
// -replay-dir persists the streams on disk across restarts.
//
// Every node serves its own checkpoint and stream stores to cluster peers at
// GET/PUT /v1/store/{snapshot,stream}?key=K.
//
// # Cluster modes
//
// -coordinator serves the routing plane instead of a simulator: workers
// register via POST /v1/register, and the coordinator consistent-hashes
// request placement keys over the healthy fleet, proxying /v1/run and
// fanning /v1/sweep grids out per key (same request/response shapes as a
// worker — clients need not care which they are talking to). The instruction
// caps (-default-insts, -max-insts, -max-ff) must match the workers'.
//
// -join URL turns this server into a worker of that coordinator: it
// registers immediately, heartbeats every -heartbeat, deregisters on drain,
// and layers its checkpoint/replay stores into local-first tiers backed by
// the fleet, so a cold worker pulls blobs a peer already materialized.
// -advertise overrides the address it registers (default: the bound
// address). -cluster-dir DIR is shorthand for -checkpoint-dir
// DIR/checkpoints -replay-dir DIR/streams.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sfcmdt/internal/blob"
	"sfcmdt/internal/cluster"
	"sfcmdt/internal/replay"
	"sfcmdt/internal/service"
	"sfcmdt/internal/snapshot"
)

func main() {
	def := service.Limits{}.WithDefaults()
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file after listening (for scripts using port 0)")
	workers := flag.Int("workers", 0, "concurrent backend runs (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond workers (default 4x workers)")
	cache := flag.Int("cache", 1024, "result cache entries")
	defaultInsts := flag.Uint64("default-insts", def.DefaultInsts, "instruction budget for requests that name none")
	maxInsts := flag.Uint64("max-insts", def.MaxInsts, "largest per-request instruction budget")
	maxFF := flag.Uint64("max-ff", def.MaxFFInsts, "largest per-request total functional fast-forward (sampled runs)")
	sampleParallel := flag.Int("sample-parallel", 0, "interval-level workers per sampled run (default GOMAXPROCS; 1 serializes; results bit-identical either way)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for the on-disk checkpoint store (default: in-memory)")
	replayDir := flag.String("replay-dir", "", "directory for the on-disk replay-stream store (default: in-memory)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline before in-flight runs are canceled")
	coordinator := flag.Bool("coordinator", false, "serve as a cluster coordinator (no local simulator)")
	join := flag.String("join", "", "coordinator URL to register with (turns this server into a cluster worker)")
	clusterDir := flag.String("cluster-dir", "", "node state directory (shorthand for -checkpoint-dir DIR/checkpoints -replay-dir DIR/streams)")
	advertise := flag.String("advertise", "", "address to register with the coordinator (default: the bound address)")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker re-registration interval when joined")
	probeInterval := flag.Duration("probe-interval", time.Second, "coordinator health-probe interval")
	loadFactor := flag.Float64("load-factor", 1.25, "coordinator bounded-load factor (<=1 disables spilling)")
	flag.Parse()

	log.SetPrefix("sfcserve: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *coordinator && *join != "" {
		log.Fatalf("-coordinator and -join are mutually exclusive")
	}
	lim := service.Limits{DefaultInsts: *defaultInsts, MaxInsts: *maxInsts, MaxFFInsts: *maxFF}

	var (
		n       node
		drained func() // logs the node's drain summary
	)
	if *coordinator {
		coord := cluster.New(cluster.Config{
			Limits:        lim,
			LoadFactor:    *loadFactor,
			ProbeInterval: *probeInterval,
			Logf:          log.Printf,
		})
		n = coord
		drained = func() {
			st := coord.ClusterStats()
			log.Printf("drained: %d runs proxied (%d rerouted, %d failed), %d sweeps (%d points), %d/%d workers healthy",
				st.Runs, st.Rerouted, st.Failed, st.Sweeps, st.SweepPoints, st.HealthyWorkers, st.TotalWorkers)
		}
	} else {
		if *clusterDir != "" {
			if *ckptDir == "" {
				*ckptDir = filepath.Join(*clusterDir, "checkpoints")
			}
			if *replayDir == "" {
				*replayDir = filepath.Join(*clusterDir, "streams")
			}
		}
		// The node's own stores, which /v1/store publishes to peers: on
		// disk when a directory is named, else in memory. Only a worker
		// keeps an in-memory stream tier; a standalone node's replay cache
		// is enough.
		var ckpts, streams blob.Store = blob.NewMem(), nil
		if *ckptDir != "" {
			ckpts = openDisk(*ckptDir, snapshot.Codec.Kind, "checkpoint")
		}
		if *replayDir != "" {
			streams = openDisk(*replayDir, replay.Codec.Kind, "replay-stream")
		} else if *join != "" {
			streams = blob.NewMem()
		}

		cfg := service.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *cache,
			Limits:         lim,
			SampleParallel: *sampleParallel,
		}
		cfg.PublishCheckpoints, cfg.PublishStreams = ckpts, streams
		if *join != "" {
			// Worker mode: read through local-first tiers backed by the
			// fleet, but publish only the local tier: serving the tiered
			// store would recurse a peer's fleet Get through the
			// coordinator back here.
			ckpts = &blob.Tiered{Local: ckpts, Remote: &blob.Remote{Base: *join, Kind: snapshot.Codec.Kind}}
			streams = &blob.Tiered{Local: streams, Remote: &blob.Remote{Base: *join, Kind: replay.Codec.Kind}}
		}
		cfg.Checkpoints = snapshot.Codec.Over(ckpts)
		if streams != nil {
			cfg.Streams = replay.Codec.Over(streams)
		}
		svc := service.New(cfg)
		n = svc
		drained = func() {
			st := svc.Stats()
			log.Printf("drained: %d requests, %d cache hits, %d coalesced, %d executed, %d rejected",
				st.Requests, st.CacheHits, st.Coalesced, st.Executed, st.Rejected)
			log.Printf("replay streams: %d hits, %d store hits, %d materialized",
				st.ReplayHits, st.ReplayStoreHits, st.ReplayMaterialized)
		}
	}

	ln, bound := listen(*addr, *addrFile)
	log.Printf("listening on %s", bound)

	// A worker heartbeats into its coordinator until it leaves, which the
	// drain does first so the coordinator stops routing new points here
	// before /v1/healthz flips.
	leave := func() {}
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = bound
		}
		jctx, stopJoin := context.WithCancel(context.Background())
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			cluster.Join(jctx, *join, adv, *heartbeat, log.Printf)
		}()
		leave = func() {
			stopJoin()
			<-joined
		}
	}

	serve(ln, n, *drain, leave)
	drained()
	fmt.Println("sfcserve: clean shutdown")
}

// node is what sfcserve serves: a worker's service or a coordinator.
type node interface {
	Handler() http.Handler
	BeginDrain()
	Close(context.Context) error
}

// Server timeouts bound what a stalled client can hold open: its request
// headers must arrive within readHeaderTimeout, and an idle keep-alive
// connection closes after idleTimeout. There is deliberately no write
// timeout, which would cut off a long /v1/sweep NDJSON stream mid-grid.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve runs n on ln until SIGINT or SIGTERM, then drains: leave the
// cluster first, then refuse new work so load balancers see /healthz flip,
// then wait for open connections and in-flight work, force-canceling
// stragglers at the drain deadline.
func serve(ln net.Listener, n node, drain time.Duration, leave func()) {
	srv := &http.Server{Handler: n.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received; draining (deadline %s)", drain)

	leave()
	n.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("forcing connection close: %v", err)
		_ = srv.Close()
	}
	if err := n.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("drain deadline hit; in-flight work canceled: %v", err)
	}
}

// openDisk opens an on-disk blob store or exits.
func openDisk(dir string, kind blob.Kind, what string) blob.Store {
	st, err := blob.NewDisk(dir, kind)
	if err != nil {
		log.Fatalf("%s store: %v", what, err)
	}
	log.Printf("%s store at %s", what, dir)
	return st
}

// listen binds addr and (optionally) publishes the bound address to a file.
func listen(addr, addrFile string) (net.Listener, string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		// Write-then-rename so watchers never read a half-written file.
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("addr-file: %v", err)
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			log.Fatalf("addr-file: %v", err)
		}
	}
	return ln, bound
}

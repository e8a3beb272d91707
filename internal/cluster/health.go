package cluster

import (
	"context"
	"time"
)

// workerState is the coordinator's view of one registered worker. All fields
// are guarded by Coordinator.mu; probes and proxied requests only read the
// client pointer outside the lock (WorkerClient is immutable once built).
type workerState struct {
	addr     string
	client   *WorkerClient
	healthy  bool      // on the ring and eligible for routing
	fails    int       // consecutive probe/transport failures
	lastBeat time.Time // last registration heartbeat received
	inflight int       // proxied requests currently executing (bounded-load signal)
	requests uint64    // total requests routed here
}

// Register adds a worker (or refreshes its heartbeat): the target of the
// worker-side Join loop. A re-registering ejected worker is readmitted
// immediately — the heartbeat proves liveness as well as a probe does, and
// a restarted worker should take traffic without waiting a probe period.
func (c *Coordinator) Register(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[addr]
	if ws == nil {
		ws = &workerState{
			addr:   addr,
			client: &WorkerClient{Addr: addr},
		}
		c.workers[addr] = ws
		c.logf("cluster: worker %s registered", addr)
	}
	ws.lastBeat = time.Now()
	if !ws.healthy {
		c.readmitLocked(ws)
	}
}

// Deregister removes a worker entirely — the graceful-leave path a draining
// worker takes, as opposed to the eject/readmit cycle of a flaky one.
func (c *Coordinator) Deregister(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws := c.workers[addr]; ws != nil {
		delete(c.workers, addr)
		c.ring.Remove(addr)
		c.logf("cluster: worker %s deregistered", addr)
	}
}

// readmitLocked puts a worker back on the ring. Callers hold c.mu.
func (c *Coordinator) readmitLocked(ws *workerState) {
	if ws.healthy {
		return
	}
	ws.healthy = true
	ws.fails = 0
	c.ring.Add(ws.addr)
	c.nReadmitted.Add(1)
	c.logf("cluster: worker %s readmitted (%d healthy)", ws.addr, c.ring.Len())
}

// ejectLocked takes a worker off the ring; its key ranges fall to the ring
// successors. The worker stays registered and probed, so recovery readmits
// it automatically. Callers hold c.mu.
func (c *Coordinator) ejectLocked(ws *workerState) {
	if !ws.healthy {
		return
	}
	ws.healthy = false
	c.ring.Remove(ws.addr)
	c.nEjected.Add(1)
	c.logf("cluster: worker %s ejected after %d consecutive failures (%d healthy)", ws.addr, ws.fails, c.ring.Len())
}

// noteFailure records a node-level failure (failed probe or transport error
// on a proxied request — an HTTP error response does not count, it proves
// the node is alive). ProbeFailures consecutive failures eject the worker.
func (c *Coordinator) noteFailure(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[addr]
	if ws == nil {
		return
	}
	ws.fails++
	if ws.healthy && ws.fails >= c.cfg.ProbeFailures {
		c.ejectLocked(ws)
	}
}

// noteSuccess clears the consecutive-failure counter and readmits an ejected
// worker that answered a probe.
func (c *Coordinator) noteSuccess(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[addr]
	if ws == nil {
		return
	}
	ws.fails = 0
	if !ws.healthy {
		c.readmitLocked(ws)
	}
}

// healthLoop probes every registered worker each ProbeInterval until ctx is
// done. Probes run concurrently so one black-holed worker cannot stretch the
// pass beyond probeTimeout.
func (c *Coordinator) healthLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.probePass(ctx)
		}
	}
}

// probePass probes every worker once and applies eject/readmit transitions.
func (c *Coordinator) probePass(ctx context.Context) {
	c.mu.Lock()
	clients := make([]*WorkerClient, 0, len(c.workers))
	for _, ws := range c.workers {
		clients = append(clients, ws.client)
	}
	c.mu.Unlock()
	done := make(chan struct{}, len(clients))
	for _, cl := range clients {
		go func(cl *WorkerClient) {
			defer func() { done <- struct{}{} }()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			if err := cl.Healthz(pctx); err != nil {
				c.noteFailure(cl.Addr)
			} else {
				c.noteSuccess(cl.Addr)
			}
		}(cl)
	}
	for range clients {
		<-done
	}
}

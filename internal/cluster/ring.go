// Package cluster shards the simulation service across a fleet: a
// coordinator consistent-hashes canonical request keys over N registered
// workers (a bounded-load variant, so a hot key cannot melt one node),
// serves the workers' own /v1 front end (service.NewMux) while routing each
// run and pinning each sweep's points per placement key, so every point
// lands on the node that owns its cache/stream/checkpoint state, and
// health-checks workers individually with automatic eject/readmit. Workers
// are today's service.Service unchanged plus a registration/heartbeat loop
// (Join); the coordinator's fleet store lets a cold worker, reading through
// a blob.Tiered store, pull a reference stream or warmup checkpoint from the
// fleet instead of re-materializing it.
//
// Distribution is a pure routing problem because every key is canonical and
// every result deterministic: a point rerouted after a mid-sweep worker
// failure is simply re-executed elsewhere and is bit-identical to the run
// that was lost. See DESIGN.md §12.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring: each member is hashed onto the ring at
// `replicas` virtual points, and a key is owned by the first member at or
// after the key's own hash. Adding or removing a member moves only the keys
// adjacent to its points, so a worker joining or failing reshuffles ~1/N of
// the key space rather than all of it — exactly what a fleet of per-node
// caches and stores wants.
//
// Ring is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted by hash
	members  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual points per member.
func NewRing(replicas int) *Ring {
	return &Ring{replicas: replicas, members: make(map[string]struct{})}
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV avalanches poorly on short strings — "n1#0" and "n1#1" land on
	// adjacent ring positions, which collapses a member's vnodes into one
	// arc and wrecks the balance. A splitmix64 finalizer spreads them.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[node]; ok {
		return
	}
	r.members[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[node]; !ok {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Sequence returns the key's preference order: every distinct member in ring
// order starting at the key's successor. seq[0] is the key's primary owner;
// the rest are the fallbacks a bounded-load spill or a failure reroute walks,
// in an order that is stable for a given membership.
func (r *Ring) Sequence(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for n := 0; n < len(r.points) && len(seq) < len(r.members); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			seq = append(seq, p.node)
		}
	}
	return seq
}

// Bounded-load placement (pick the first member of Sequence whose load is
// under ceil(c·(total+1)/n)) lives in Coordinator.acquire, where the
// failure-exclusion set and the live in-flight counters are; the ring only
// answers ownership and preference order.

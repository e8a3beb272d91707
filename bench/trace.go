package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sfcmdt/internal/replay"
	"sfcmdt/internal/snapshot"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Lane is the benchmark goroutine that made the call (0 or 1), or
// -1 for a root span and for calls the program makes on its own goroutines
// (store reads and writes), which the benchmark sees only through the store
// it handed in.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"` // op sequence number; -1 for set-up
	Lane     int    `json:"lane"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Config names the pipeline configuration of a simulation span.
	Config string `json:"config,omitempty"`
	// Insts and Cycles attribute simulated work to the span.
	Insts  uint64 `json:"insts,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so an untraced op runs the same code wherever its layer calls are
// the same.
type tracer struct {
	workload string
	origin   time.Time
	op       atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// setOp tags the spans begun from now on with an op sequence number.
func (t *tracer) setOp(seq int) {
	if t != nil {
		t.op.Store(int64(seq))
	}
}

type spanRef struct {
	t  *tracer
	id int
}

// begin opens a span under parent (-1 for a root) on a lane.
func (t *tracer) begin(name string, parent, lane int) spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Op: int(t.op.Load()), Lane: lane, StartNS: now, EndNS: now,
	})
	return spanRef{t: t, id: id}
}

func (s spanRef) end() { s.endWork("", 0, 0) }

// endWork closes the span, attributing simulated work to it.
func (s spanRef) endWork(config string, insts, cycles uint64) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.origin).Nanoseconds()
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.EndNS, sp.Config, sp.Insts, sp.Cycles = now, config, insts, cycles
	s.t.mu.Unlock()
}

// opSpans returns a copy of the spans recorded for one op.
func (t *tracer) opSpans(seq int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Op == seq {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every span to path, one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// opTree returns the root span of an op and the spans under it, root
// first; ok is false when the spans hold no op root. Spans outside the tree
// (probes made after the op) are left out.
func opTree(spans []span) (tree []span, ok bool) {
	under := make(map[int]bool)
	for _, s := range spans { // a parent always precedes its children
		if (s.Name == "op" && s.Parent == -1 && len(tree) == 0) || (s.Parent >= 0 && under[s.Parent]) {
			under[s.ID] = true
			tree = append(tree, s)
		}
	}
	return tree, len(tree) > 0
}

// spanSelf returns each span's self time, indexed like spans: its duration
// minus the part of its interval its children cover. Children that run
// concurrently are merged, so overlapping children are not subtracted
// twice.
func spanSelf(spans []span) []time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - time.Duration(covered(kids[s.ID], s.StartNS, s.EndNS))
	}
	return out
}

// selfTimes sums the self time of spans per span name.
func selfTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range spanSelf(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// storeProbe wraps a checkpoint or stream store so the benchmark can time
// each Get and Put from outside the program and count the writes. Its spans
// are named prefix+"get" and prefix+"put".
type storeProbe[K, V any] struct {
	inner interface {
		Get(K) (V, bool, error)
		Put(K, V) error
	}
	prefix string
	tr     *tracer
	parent atomic.Int64 // span the calls are attributed to
	puts   atomic.Int64
}

func newSnapshotProbe(inner snapshot.Store, tr *tracer) *storeProbe[snapshot.Key, *snapshot.State] {
	p := &storeProbe[snapshot.Key, *snapshot.State]{inner: inner, prefix: "snapshot.", tr: tr}
	p.parent.Store(-1)
	return p
}

func newStreamProbe(inner replay.Store, tr *tracer) *storeProbe[replay.Key, *replay.Stream] {
	p := &storeProbe[replay.Key, *replay.Stream]{inner: inner, prefix: "replay.store_", tr: tr}
	p.parent.Store(-1)
	return p
}

func (p *storeProbe[K, V]) Get(k K) (V, bool, error) {
	s := p.tr.begin(p.prefix+"get", int(p.parent.Load()), -1)
	defer s.end()
	return p.inner.Get(k)
}

func (p *storeProbe[K, V]) Put(k K, v V) error {
	p.puts.Add(1)
	s := p.tr.begin(p.prefix+"put", int(p.parent.Load()), -1)
	defer s.end()
	return p.inner.Put(k, v)
}

package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnerDeterministic(t *testing.T) {
	build := func() *Ring {
		r := NewRing(64)
		// Insertion order must not matter.
		for _, n := range []string{"c", "a", "b"} {
			r.Add(n)
		}
		return r
	}
	r1, r2 := build(), build()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("gzip|%d", i)
		o1, o2 := r1.Sequence(key)[0], r2.Sequence(key)[0]
		if o1 != o2 {
			t.Fatalf("owner of %q not deterministic: %q vs %q", key, o1, o2)
		}
	}
}

func TestRingRebalanceMovesOnlyFailedNodesKeys(t *testing.T) {
	r := NewRing(64)
	nodes := []string{"n1", "n2", "n3", "n4"}
	for _, n := range nodes {
		r.Add(n)
	}
	const keys = 4096
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("w%d|%d", i%16, i)
		before[k] = r.Sequence(k)[0]
	}
	// Sanity: every node owns a reasonable share (64 vnodes balances
	// single-digit fleets to well within 2x of fair).
	share := make(map[string]int)
	for _, o := range before {
		share[o]++
	}
	for _, n := range nodes {
		if share[n] < keys/len(nodes)/2 || share[n] > keys*2/len(nodes) {
			t.Fatalf("node %s owns %d of %d keys; want a roughly fair share (%v)", n, share[n], keys, share)
		}
	}

	r.Remove("n2")
	for k, was := range before {
		now := r.Sequence(k)[0]
		if was != "n2" && now != was {
			t.Fatalf("key %q moved %s -> %s though its owner never failed", k, was, now)
		}
		if was == "n2" && now == "n2" {
			t.Fatalf("key %q still owned by removed node", k)
		}
	}

	// Readding restores exactly the original assignment: vnode hashes are a
	// pure function of the member name.
	r.Add("n2")
	for k, was := range before {
		if now := r.Sequence(k)[0]; now != was {
			t.Fatalf("key %q at %s after readmit, want %s", k, now, was)
		}
	}
}

func TestRingSequence(t *testing.T) {
	r := NewRing(32)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		seq := r.Sequence(key)
		if len(seq) != 3 {
			t.Fatalf("Sequence(%q) = %v, want all 3 members", key, seq)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("Sequence(%q) repeats %q: %v", key, n, seq)
			}
			seen[n] = true
		}
	}
	if got := NewRing(32).Sequence("k"); got != nil {
		t.Fatalf("empty ring Sequence = %v, want nil", got)
	}
}

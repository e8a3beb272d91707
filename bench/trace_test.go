package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	// op [0,100) has two overlapping children on different lanes, [10,50)
	// and [30,70), and a grandchild [40,45) under the first.
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Lane: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", Lane: 0, StartNS: 10, EndNS: 50},
		{ID: 2, Parent: 0, Name: "b", Lane: 1, StartNS: 30, EndNS: 70},
		{ID: 3, Parent: 1, Name: "c", Lane: -1, StartNS: 40, EndNS: 45},
		{ID: 4, Parent: -1, Name: "probe", Lane: -1, StartNS: 100, EndNS: 120},
	}
	tree, ok := opTree(spans)
	if !ok || len(tree) != 4 {
		t.Fatalf("opTree kept %d spans, want the op and its 3 descendants", len(tree))
	}
	self := selfTimes(tree)
	want := map[string]time.Duration{"op": 40, "a": 35, "b": 40, "c": 5}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
	if got := topLevelNS(tree); got != 80 {
		t.Errorf("top-level lane time %v, want 80", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", -1, 0)
	s.endWork("cfg", 1, 2) // must not panic
	tr.setOp(3)
}

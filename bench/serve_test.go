package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sfcmdt/internal/service"
)

func TestSessionDeterministicPerSeed(t *testing.T) {
	a := session(1, 3, 500)
	if !reflect.DeepEqual(a, session(1, 3, 500)) {
		t.Fatal("the same seed and session gave different requests")
	}
	if reflect.DeepEqual(a, session(2, 3, 500)) {
		t.Error("seeds 1 and 2 gave the same requests")
	}
	if reflect.DeepEqual(a, session(1, 4, 500)) {
		t.Error("sessions 3 and 4 gave the same requests")
	}
	if !reflect.DeepEqual(hotSet(1), hotSet(1)) || reflect.DeepEqual(hotSet(1), hotSet(2)) {
		t.Error("the hot set must be fixed per seed and differ across seeds")
	}
}

// Every generated request must be what its kind claims: valid runs and
// sweeps normalize under the service's default caps, invalid bodies do not.
func TestSessionRequestsMatchTheirKind(t *testing.T) {
	const defaultInsts, maxInsts, maxFF = 20_000, 200_000, 50_000_000
	counts := make(map[reqKind]int)
	for _, rq := range session(7, 1, 2000) {
		counts[rq.kind]++
		dec := json.NewDecoder(bytes.NewReader(rq.body))
		dec.DisallowUnknownFields()
		switch rq.kind {
		case runReq:
			var run service.RunRequest
			if err := dec.Decode(&run); err != nil {
				t.Fatalf("run %s: %v", rq.body, err)
			}
			if err := run.Normalize(defaultInsts, maxInsts, maxFF); err != nil || run.Workload != rq.workload {
				t.Fatalf("run %s: %v", rq.body, err)
			}
		case sweepReq:
			var sw service.SweepRequest
			if err := dec.Decode(&sw); err != nil {
				t.Fatalf("sweep %s: %v", rq.body, err)
			}
			points := sw.Expand()
			if len(points) != 6 {
				t.Fatalf("sweep %s expands to %d points, want 6", rq.body, len(points))
			}
			for _, p := range points {
				if err := p.Normalize(defaultInsts, maxInsts, maxFF); err != nil {
					t.Fatalf("sweep point %+v: %v", p, err)
				}
			}
		case badReq:
			var run service.RunRequest
			if err := dec.Decode(&run); err == nil {
				if err := run.Normalize(defaultInsts, maxInsts, maxFF); err == nil {
					t.Fatalf("invalid request %s normalizes", rq.body)
				}
			}
		}
	}
	for _, k := range []reqKind{runReq, sweepReq, badReq} {
		if counts[k] == 0 {
			t.Errorf("no requests of kind %d in 2000", k)
		}
	}
	if share := float64(counts[runReq]) / 2000; share < 0.9 || share > 0.98 {
		t.Errorf("/v1/run share %.3f, want about 0.95", share)
	}
}

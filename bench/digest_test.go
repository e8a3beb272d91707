package main

import (
	"testing"

	"sfcmdt/internal/metrics"
)

func TestStatsDigestIgnoresJobOrderAndElision(t *testing.T) {
	cells := []cell{
		{"gzip", "baseline/lsq-48x32", metrics.Stats{Cycles: 100, Retired: 90, CyclesElided: 7}},
		{"gzip", "baseline/mdtsfc-enf", metrics.Stats{Cycles: 110, Retired: 90}},
		{"mcf", "baseline/lsq-48x32", metrics.Stats{Cycles: 300, Retired: 90, SFCForwards: 3}},
	}
	want := statsDigest(cells)
	reordered := []cell{cells[2], cells[0], cells[1]}
	if got := statsDigest(reordered); got != want {
		t.Error("the digest depends on job order")
	}
	elided := append([]cell(nil), cells...)
	elided[1].Stats.CyclesElided = 50
	if got := statsDigest(elided); got != want {
		t.Error("the digest depends on CyclesElided")
	}
	changed := append([]cell(nil), cells...)
	changed[2].Stats.SFCForwards++
	if got := statsDigest(changed); got == want {
		t.Error("the digest missed a changed counter")
	}
}

package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 9}, 0.5, 2.5, 9},
		{[]float64{4, 4, 4, 5, 100}, 4, 4, 52.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, unsorted
	}
	if got := percentile(xs, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one value = %v", got)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 90, 125}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"faster everywhere", steady, scaled(steady, 0.8), true, 0.1, improved},
		{"identical", steady, steady, true, 0.1, unchanged},
		{"slower beyond bound", steady, scaled(steady, 1.3), true, 0.1, regressed},
		{"slower within bound", steady, scaled(steady, 1.05), true, 0.1, unchanged},
		{"spread wider than bound", noisy, scaled(noisy, 1.05), true, 0.1, unresolved},
		{"higher is better, lower now", steady, scaled(steady, 0.7), false, 0.1, regressed},
		{"higher is better, higher now", steady, scaled(steady, 1.2), false, 0.1, improved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.lower, c.bound, 0); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// A candidate that wins most pairs but not nine tenths claims no gain.
	b := scaled(steady, 0.95)
	b[0], b[1] = 200, 200
	if got, wf := verdict(steady, b, true, 0.1, 0); got != unchanged || wf != 0.8 {
		t.Errorf("8 of 10 wins: verdict %s with win fraction %v, want unchanged at 0.8", got, wf)
	}
}

// An absolute floor widens a bound that is small in the metric's unit: a
// 0.1 s set-up may move by 30 ms under a 10% bound with a 50 ms floor, but
// not by 60 ms, and a spread of a few tens of ms stays resolved.
func TestVerdictFloor(t *testing.T) {
	setup := scaled([]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, 0.001)
	noisy := []float64{0.10, 0.14, 0.07, 0.12, 0.085, 0.13, 0.075, 0.11, 0.09, 0.125}
	cases := []struct {
		name  string
		a, b  []float64
		floor float64
		want  string
	}{
		{"30 ms slower, no floor", setup, scaled(setup, 1.3), 0, regressed},
		{"30 ms slower, 50 ms floor", setup, scaled(setup, 1.3), 0.05, unchanged},
		{"60 ms slower, 50 ms floor", setup, scaled(setup, 1.6), 0.05, regressed},
		{"45 ms spread, no floor", noisy, noisy, 0, unresolved},
		{"45 ms spread, 50 ms floor", noisy, noisy, 0.05, unchanged},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, true, 0.1, c.floor); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

package metrics

import "reflect"

// extremumFields are the counters that are running extrema rather than sums.
// Merge takes the max and Delta keeps the later value. Every other Stats
// field is an additive count, which is what lets the helpers walk
// the struct by reflection instead of naming each field (the reflection test
// in combine_test.go enforces that new fields are uint64 and so inherit the
// additive treatment unless listed here).
var extremumFields = map[string]bool{
	"MaxOccupancy": true,
}

// Merge accumulates o into s: additive counters sum, extrema take the max.
// The sampler uses it to aggregate per-interval Stats into one estimate.
func (s *Stats) Merge(o *Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	t := sv.Type()
	for i := 0; i < t.NumField(); i++ {
		a, b := sv.Field(i).Uint(), ov.Field(i).Uint()
		if extremumFields[t.Field(i).Name] {
			if b > a {
				sv.Field(i).SetUint(b)
			}
			continue
		}
		sv.Field(i).SetUint(a + b)
	}
}

// Delta returns s - base field-wise: the counters accrued after base was
// captured. Extremum fields keep s's (final) value — a peak observed during
// the excluded prefix may not recur, so the later reading is the only sound
// one. The sampler uses Delta to discard detailed-warmup statistics.
func (s *Stats) Delta(base *Stats) *Stats {
	d := &Stats{}
	dv := reflect.ValueOf(d).Elem()
	sv := reflect.ValueOf(s).Elem()
	bv := reflect.ValueOf(base).Elem()
	t := sv.Type()
	for i := 0; i < t.NumField(); i++ {
		if extremumFields[t.Field(i).Name] {
			dv.Field(i).SetUint(sv.Field(i).Uint())
			continue
		}
		dv.Field(i).SetUint(sv.Field(i).Uint() - bv.Field(i).Uint())
	}
	return d
}

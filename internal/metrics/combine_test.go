package metrics

import (
	"reflect"
	"testing"
)

// fill sets every field of a Stats to a distinct value derived from its index
// and a seed, so a helper that drops or duplicates a field produces a
// mismatch on that field specifically.
func fill(seed uint64) *Stats {
	s := &Stats{}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(seed + uint64(i)*3)
	}
	return s
}

// TestStatsAllFieldsUint64 pins the invariant the reflection helpers rely
// on: every Stats field is a uint64, so a new field added without updating
// combine.go is still merged/scaled rather than silently dropped.
func TestStatsAllFieldsUint64(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("field %s is %s; Stats fields must be uint64 for Merge/Delta", f.Name, f.Type)
		}
	}
	for name := range extremumFields {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("extremumFields names %q, which is not a Stats field", name)
		}
	}
}

func TestMergeEveryField(t *testing.T) {
	a, b := fill(100), fill(1000)
	a.Merge(b)
	av := reflect.ValueOf(a).Elem()
	st := av.Type()
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		x, y := 100+uint64(i)*3, 1000+uint64(i)*3
		want := x + y
		if extremumFields[name] {
			want = y // b's value is larger for every field
		}
		if got := av.Field(i).Uint(); got != want {
			t.Errorf("Merge: field %s = %d, want %d", name, got, want)
		}
	}
	// Extremum keeps the larger side regardless of merge order.
	c, d := fill(1000), fill(100)
	c.Merge(d)
	if c.MaxOccupancy != fill(1000).MaxOccupancy {
		t.Errorf("Merge: MaxOccupancy = %d, want the larger operand kept", c.MaxOccupancy)
	}
}

func TestDeltaEveryField(t *testing.T) {
	base, final := fill(100), fill(1000)
	d := final.Delta(base)
	dv := reflect.ValueOf(d).Elem()
	st := dv.Type()
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		want := uint64(900)
		if extremumFields[name] {
			want = 1000 + uint64(i)*3 // Delta keeps the final extremum
		}
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("Delta: field %s = %d, want %d", name, got, want)
		}
	}
	// Delta must not mutate its operands.
	if !reflect.DeepEqual(final, fill(1000)) || !reflect.DeepEqual(base, fill(100)) {
		t.Error("Delta mutated an operand")
	}
}

// TestMergeDeltaRoundTrip: merging the deltas of consecutive snapshots
// reconstructs the final additive counters — the exact identity the sampler
// depends on when it measures intervals and sums them.
func TestMergeDeltaRoundTrip(t *testing.T) {
	base, mid, final := fill(0), fill(500), fill(2000)
	sum := &Stats{}
	sum.Merge(mid.Delta(base))
	sum.Merge(final.Delta(mid))
	want := final.Delta(base)
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("sum of interval deltas != overall delta:\n got %+v\nwant %+v", sum, want)
	}
}

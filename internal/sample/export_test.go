package sample

import (
	"sfcmdt/internal/prog"
	"sfcmdt/internal/snapshot"
)

// PrepareTrace is Prepare with each interval's golden AoS trace kept as its
// source: the reference TestSampledLockstepReplayIdentical measures replay
// streams against.
func PrepareTrace(img *prog.Image, plan Plan, store snapshot.Store, args string) (*Intervals, error) {
	return prepare(img, plan, store, args, true)
}

package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"sfcmdt/internal/core"
	"sfcmdt/internal/workload"
)

// TestDebugTrace exercises the SetDebug event sink (the machinery behind
// cmd/sfctrace): a conflict-prone run must emit load/store/recovery events
// and still validate.
func TestDebugTrace(t *testing.T) {
	w, ok := workload.Get("gzip")
	if !ok {
		t.Fatal("gzip workload missing")
	}
	cfg := Config{
		Name: "debug-trace", Width: 4, FetchBranches: 1, ROBSize: 128,
		MemSys:   MemMDTSFC,
		MDT:      core.MDTConfig{Sets: 4 << 10, Ways: 2, GranBytes: 8, Tagged: true},
		SFC:      core.SFCConfig{Sets: 128, Ways: 2},
		Pred:     core.DefaultPredictorConfig(core.PredPairwise),
		MaxInsts: 3000,
	}
	p, err := New(cfg, w.Build())
	if err != nil {
		t.Fatal(err)
	}
	var loads, stores, retires int
	p.SetDebug(func(f string, a ...any) {
		line := fmt.Sprintf(f, a...)
		switch {
		case strings.HasPrefix(line, "c") && strings.Contains(line, "LOAD"):
			loads++
		case strings.Contains(line, "STORE"):
			stores++
		case strings.Contains(line, "RETIRE"):
			retires++
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if loads == 0 || stores == 0 || retires == 0 {
		t.Errorf("debug trace incomplete: %d loads, %d stores, %d retires", loads, stores, retires)
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"sfcmdt/internal/metrics"
)

// digestFile holds the expected output digests, per workload and per seed.
// The key "*" marks a workload whose outputs do not depend on the seed.
const digestFile = "bench/testdata/digests.json"

// cell is one simulated run's outcome: the workload, the configuration it
// ran under, and its counters.
type cell struct {
	Workload string
	Config   string
	Stats    metrics.Stats
}

// statsDigest hashes every cell's counters in (workload, config) order, so
// the digest does not depend on the order jobs ran in. CyclesElided is left
// out: it is a property of the simulator, not of the simulated machine, and
// an optimisation of the simulator may legitimately change it.
func statsDigest(cells []cell) string {
	s := append([]cell(nil), cells...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Workload != s[j].Workload {
			return s[i].Workload < s[j].Workload
		}
		return s[i].Config < s[j].Config
	})
	h := sha256.New()
	for _, c := range s {
		st := c.Stats
		st.CyclesElided = 0
		b, _ := json.Marshal(st) // a struct of integers always marshals
		fmt.Fprintf(h, "%s|%s|%s\n", c.Workload, c.Config, b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type digests map[string]map[string]string // workload → seed key → digest

func loadDigests() (digests, error) {
	b, err := os.ReadFile(digestFile)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var d digests
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestFile, err)
	}
	return d, nil
}

func (d digests) save() error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}

package main

import (
	"os"
	"testing"
)

// TestStormTable re-derives stormTable: every (topology, variant) pair
// of the recovery storm is run for stormMaxEpisodes episodes, and the
// pairs that drain must be exactly the listed ones. It takes a couple
// of minutes, so it runs only on request.
func TestStormTable(t *testing.T) {
	if os.Getenv("BENCH_VERIFY_STORM") == "" {
		t.Skip("set BENCH_VERIFY_STORM=1 to re-derive the storm's table")
	}
	w := findWorkload("recovery_storm_8x8")
	for _, row := range stormTable {
		listed := map[int64]bool{}
		for _, v := range row.drains {
			listed[v] = true
		}
		for v := int64(0); v < stormVariants; v++ {
			r := newRun(w, 0, stormMaxEpisodes, false)
			in := buildStormPair(r, row.topoSeed, v)
			for e := 0; e < stormMaxEpisodes && r.failed == 0; e++ {
				r.episode(in, e)
			}
			if drains := r.failed == 0; drains != listed[v] {
				t.Errorf("topology seed %d variant %d: drains=%v %v, but listed=%v", row.topoSeed, v, drains, r.failures, listed[v])
			}
		}
	}
}

package network_test

// The zero-allocation steady-state gate, as a plain test: after warm-up,
// an inject→deliver→recycle loop at a below-saturation load must not
// allocate a single heap object under any of the three cores. The
// benchmark harness (internal/experiments, BENCH_sim.json) measures the
// same property with MemStats windows; this is the fast in-tree
// regression hook using testing.AllocsPerRun.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// steadyLoop builds an 8x8 mesh with the static-bubble controller and a
// below-saturation uniform-random load, runs warmup cycles so every
// pool, arena and ring reaches its steady size, and returns a one-cycle
// advance function.
func steadyLoop(shards int, useRef bool) func() {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(41)))
	core.Attach(s, core.Options{})
	s.PrewarmPool(1024, 16, 32)
	// Routing tables are fully compiled at construction, so nothing
	// route-related can allocate inside the measured window.
	min := routing.NewMinimal(topo)
	alive := topo.AliveRouters()
	inj := traffic.NewInjector(alive, min,
		traffic.NewUniformRandom(alive), 0.15, rand.New(rand.NewSource(42)))
	step := s.Step
	if useRef {
		step = refmodel.New(s).Step
	}
	cycle := func() {
		inj.Tick(s)
		step()
	}
	for i := 0; i < 3000; i++ {
		cycle()
	}
	return cycle
}

// TestZeroAllocSteadyState drives ≥10k post-warmup cycles under the
// sequential sweep, the sharded sweep and the refmodel full scan, and
// requires exactly zero heap allocations from each.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state run")
	}
	cases := []struct {
		name   string
		shards int
		useRef bool
	}{
		{"event_sequential", 1, false},
		{"sharded_2", 2, false},
		{"sharded_4", 4, false},
		{"refmodel_fullscan", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycle := steadyLoop(tc.shards, tc.useRef)
			// AllocsPerRun runs the body once extra as its own warm-up, so
			// the measured pass covers cycles well past any growth.
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 10000; i++ {
					cycle()
				}
			})
			if allocs != 0 {
				t.Errorf("steady state allocated %.0f objects per 10k cycles, want 0", allocs)
			}
		})
	}
}

// saturatedLoop is steadyLoop's past-saturation sibling: offered load
// well above the 8x8 uniform-random saturation point, so NI queues grow
// for the whole run and the live packet population never stabilizes.
// Zero-allocation here depends on prewarming for the run's *peak* live
// population and ring high-water (not just a steady-state size), on
// reserved NI rings surviving the full-drain/refill oscillation, and on
// pooled controller messages keeping their Turns capacity as probes
// consume turns hop by hop — the three regressions this test pins.
func saturatedLoop(shards int) func() {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(21)))
	core.Attach(s, core.Options{}).PrewarmMessages(4096)
	s.PrewarmPool(32768, 16, 1024)
	min := routing.NewMinimal(topo)
	alive := topo.AliveRouters()
	inj := traffic.NewInjector(alive, min,
		traffic.NewUniformRandom(alive), 0.35, rand.New(rand.NewSource(22)))
	cycle := func() {
		inj.Tick(s)
		s.Step()
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	return cycle
}

// TestZeroAllocSaturation holds the stepper — sequential and sharded
// — to the zero-allocation contract past the saturation point, where
// the historical leaks lived (ring release-on-drain churn, controller
// Turns-capacity erosion, under-sized prewarm). A handful of objects
// are tolerated per measured pass: the sharded stepper's worker
// goroutines occasionally make the runtime allocate park/unpark
// machinery, which is scheduler noise, not simulator state (the
// benchmark gate in internal/experiments applies the same budget).
func TestZeroAllocSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("long saturation run")
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			cycle := saturatedLoop(shards)
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 2500; i++ {
					cycle()
				}
			})
			if allocs > 8 {
				t.Errorf("saturated run allocated %.0f objects per 2.5k cycles, want ~0", allocs)
			}
		})
	}
}

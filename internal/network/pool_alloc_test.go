package network_test

// The zero-allocation steady-state gate: after warm-up, an
// inject→deliver→recycle loop at a below-saturation load must not
// allocate a single heap object under the sequential sweep, the sharded
// sweep or the refmodel full scan, measured with testing.AllocsPerRun.
// `go run ./bench` reports the same property per workload as
// network.allocs_per_kcycle from a MemStats window.

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

// steadyWarmup and steadyWindow are the cycles a steady-state case runs
// before measurement and per measured pass.
const (
	steadyWarmup = 3000
	steadyWindow = 10000
)

// steadyLoad is one zero-allocation scenario's mesh and traffic: a w×h
// mesh with the static-bubble controller under uniform-random load at
// rate.
type steadyLoad struct {
	w, h int
	rate float64
	// msgs sizes core.PrewarmMessages (0 = not called); pool is the
	// PrewarmPool (packets, routeLen, niDepth) triple.
	msgs int
	pool [3]int
	// injectUntil stops injection at that cycle so the rest of the run
	// is a drained tail; 0 injects throughout.
	injectUntil int64
}

// steadyLoop builds the load under the chosen core, runs steadyWarmup
// cycles so every pool, arena and ring reaches its steady size, and
// returns a one-cycle advance function.
func steadyLoop(ld steadyLoad, shards int, useRef bool) func() {
	topo := topology.NewMesh(ld.w, ld.h)
	s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(41)))
	ctl := core.Attach(s, core.Options{})
	if ld.msgs > 0 {
		ctl.PrewarmMessages(ld.msgs)
	}
	s.PrewarmPool(ld.pool[0], ld.pool[1], ld.pool[2])
	// Routing tables are fully compiled at construction, so nothing
	// route-related can allocate inside the measured window.
	min := routing.NewMinimal(topo)
	alive := topo.AliveRouters()
	inj := traffic.NewInjector(alive, min,
		traffic.NewUniformRandom(alive), ld.rate, rand.New(rand.NewSource(42)))
	step := s.Step
	if useRef {
		step = refmodel.New(s).Step
	}
	cycle := func() {
		if ld.injectUntil == 0 || s.Now < ld.injectUntil {
			inj.Tick(s)
		}
		step()
	}
	for i := 0; i < steadyWarmup; i++ {
		cycle()
	}
	return cycle
}

// TestZeroAllocSteadyState drives ≥10k post-warmup cycles of each case
// and requires exactly zero heap allocations: the 8x8 loop just below
// saturation under all three cores, a 16x16 trickle whose injection
// stops half-way through the measured pass (active-set sweep, quiet
// windows and a fully drained tail), and the 1024-router mesh below its
// saturation point under the sharded sweep.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state run")
	}
	steady8 := steadyLoad{w: 8, h: 8, rate: 0.15, pool: [3]int{1024, 16, 32}}
	idle16 := steadyLoad{w: 16, h: 16, rate: 0.002, pool: [3]int{512, 32, 16},
		// AllocsPerRun's own warm-up pass comes first; the measured pass
		// is cycles [warmup+window, warmup+2·window).
		injectUntil: steadyWarmup + steadyWindow + steadyWindow/2}
	steady32 := steadyLoad{w: 32, h: 32, rate: 0.04, msgs: 2048, pool: [3]int{16384, 64, 128}}
	cases := []struct {
		name   string
		load   steadyLoad
		shards int
		useRef bool
	}{
		{"event_sequential", steady8, 1, false},
		{"sharded_2", steady8, 2, false},
		{"sharded_4", steady8, 4, false},
		{"refmodel_fullscan", steady8, 1, true},
		{"idle_16x16_drained", idle16, 1, false},
		{"idle_16x16_drained_sharded_4", idle16, 4, false},
		{"steady_32x32_sharded_4", steady32, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycle := steadyLoop(tc.load, tc.shards, tc.useRef)
			// AllocsPerRun runs the body once extra as its own warm-up, so
			// the measured pass covers cycles well past any growth.
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < steadyWindow; i++ {
					cycle()
				}
			})
			if allocs != 0 {
				t.Errorf("steady state allocated %.0f objects per %d cycles, want 0", allocs, steadyWindow)
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
// machinery, which is scheduler noise, not simulator state.
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

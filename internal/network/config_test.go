package network_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestShardsConfigIsInert pins the contract of the retired Config.Shards
// field: a saturated 8x8 Static Bubble run configured with Shards 4 must
// match the default configuration cycle for cycle, and the seam counter
// beside it must stay 0. The benchmark's side pass still sets the field
// and compares the two runs' Stats.
func TestShardsConfigIsInert(t *testing.T) {
	build := func(cfg network.Config) (*network.Sim, *traffic.Injector) {
		topo := topology.NewMesh(8, 8)
		s := network.New(topo, cfg, rand.New(rand.NewSource(21)))
		core.Attach(s, core.Options{})
		alive := topo.AliveRouters()
		inj := traffic.NewInjector(alive, routing.NewMinimal(topo),
			traffic.NewUniformRandom(alive), 0.35, rand.New(rand.NewSource(22)))
		return s, inj
	}
	plain, plainInj := build(network.Config{})
	sharded, shardedInj := build(network.Config{Shards: 4})
	for cyc := 0; cyc < 3000; cyc++ {
		plainInj.Tick(plain)
		plain.Step()
		shardedInj.Tick(sharded)
		sharded.Step()
		if sharded.Stats != plain.Stats {
			t.Fatalf("cycle %d: Shards 4 diverged\n got %+v\nwant %+v", cyc, sharded.Stats, plain.Stats)
		}
	}
	if plain.Stats.Delivered == 0 || plain.Stats.DeadlockRecoveries == 0 {
		t.Fatalf("vacuous: delivered %d, recoveries %d", plain.Stats.Delivered, plain.Stats.DeadlockRecoveries)
	}
	if c := sharded.StepperCounters(); c.XFills != 0 || c != plain.StepperCounters() {
		t.Fatalf("stepper counters: Shards 4 %+v, default %+v", c, plain.StepperCounters())
	}
}

// TestStepSweepsEveryCycle pins that Step has one path: on an idle SB
// mesh under on/off trickle traffic and on a Static Bubble storm drained
// to empty, every Step call is a swept cycle (DenseCycles counts the
// calls) and none is skipped (QuietCycles, which the benchmark still
// reads, stays 0).
func TestStepSweepsEveryCycle(t *testing.T) {
	// run drives three episodes, each a burst of `on` injecting cycles
	// followed by a drain to empty and 300 idle cycles.
	run := func(t *testing.T, topo *topology.Topology, rate float64, on int) *network.Sim {
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(11)))
		core.Attach(s, core.Options{})
		alive := topo.AliveRouters()
		inj := traffic.NewInjector(alive, routing.NewMinimal(topo),
			traffic.NewUniformRandom(alive), rate, rand.New(rand.NewSource(12)))
		var calls int64
		step := func() { s.Step(); calls++ }
		for ep := 0; ep < 3; ep++ {
			for i := 0; i < on; i++ {
				inj.Tick(s)
				step()
			}
			for i := 0; s.InFlight()+s.QueuedPackets() > 0; i++ {
				if i == 40000 {
					t.Fatalf("episode %d not drained: %d in flight", ep, s.InFlight())
				}
				step()
			}
			for i := 0; i < 300; i++ {
				step()
			}
		}
		if c := s.StepperCounters(); c.QuietCycles != 0 || c.DenseCycles != calls {
			t.Fatalf("%d Step calls, counters %+v", calls, c)
		}
		if s.Stats.Delivered == 0 {
			t.Fatal("vacuous: nothing delivered")
		}
		return s
	}
	t.Run("idle_sb_mesh", func(t *testing.T) {
		run(t, topology.NewMesh(16, 16), 0.002, 300)
	})
	t.Run("drained_storm", func(t *testing.T) {
		s := run(t, topology.RandomIrregular(8, 8, topology.LinkFaults, 25, 4), 0.25, 500)
		if s.Stats.DeadlockRecoveries == 0 {
			t.Fatal("vacuous: no recovery")
		}
	})
}

// TestOutputOverrideIsInert pins the contract of the retired
// OutputOverride field: the simulator never reads it. A saturated 8x8
// Static Bubble run without a hop class, carrying an override that would
// eject every packet where it stands, must make no call to it and match
// the bare run cycle for cycle. (adaptive's
// TestOverrideBesideHopClassIsInert pins the benchmark's exact use,
// beside a hop class.)
func TestOutputOverrideIsInert(t *testing.T) {
	build := func() (*network.Sim, *traffic.Injector) {
		topo := topology.NewMesh(8, 8)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(21)))
		core.Attach(s, core.Options{})
		alive := topo.AliveRouters()
		inj := traffic.NewInjector(alive, routing.NewMinimal(topo),
			traffic.NewUniformRandom(alive), 0.35, rand.New(rand.NewSource(22)))
		return s, inj
	}
	plain, plainInj := build()
	over, overInj := build()
	calls := 0
	over.OutputOverride = func(*network.Packet, geom.NodeID) (geom.Direction, bool) {
		calls++
		return geom.Local, true
	}
	for cyc := 0; cyc < 3000; cyc++ {
		plainInj.Tick(plain)
		plain.Step()
		overInj.Tick(over)
		over.Step()
		if over.Stats != plain.Stats {
			t.Fatalf("cycle %d: the override changed the run\n got %+v\nwant %+v", cyc, over.Stats, plain.Stats)
		}
	}
	if calls != 0 {
		t.Fatalf("the override was called %d times", calls)
	}
	if plain.Stats.Delivered == 0 || plain.Stats.DeadlockRecoveries == 0 {
		t.Fatalf("vacuous: delivered %d, recoveries %d", plain.Stats.Delivered, plain.Stats.DeadlockRecoveries)
	}
}

package network_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
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

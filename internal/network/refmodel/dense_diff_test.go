package refmodel

// Differential coverage at saturation — the regime where nearly every
// router is active every cycle, the fused bitset allocation pass does
// all the arbitration, and every busy cycle of a sharded Sim takes the
// parallel sweep. The randomized harness (diff_test.go) mostly offers
// loads below that; this test drives a mesh past saturation and
// asserts cycle-exactness against the refmodel and across shard counts
// precisely where that code runs, with the counters pinned so the claim
// is not vacuous.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestDifferentialDenseSaturated(t *testing.T) {
	const (
		cycles = 2200
		window = 1600
		rate   = 0.30
	)
	mk := func(shards int) (*network.Sim, *core.Controller) {
		topo := topology.NewMesh(8, 8)
		s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(7)))
		return s, core.Attach(s, core.Options{})
	}
	units := []*unit{{name: "refmodel"}, {name: "step"}, {name: "shards2"}, {name: "shards4"}}
	for i, u := range units {
		u.sim, u.ctl = mk([]int{1, 1, 2, 4}[i])
		u.step = u.sim.Step
	}
	ref := units[0].sim
	units[0].step = New(ref).Step
	ref.SetPooling(false)

	hrng := rand.New(rand.NewSource(8))
	min := routing.NewMinimal(ref.Topo)
	alive := ref.Topo.AliveRouters()
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc < window {
			for _, src := range alive {
				if hrng.Float64() >= rate {
					continue
				}
				dst := alive[hrng.Intn(len(alive))]
				if dst == src {
					continue
				}
				r, ok := min.Route(src, dst, hrng)
				if !ok {
					continue
				}
				vnet := hrng.Intn(ref.Cfg.NumVnets)
				var ln = 1 + 4*hrng.Intn(2)
				for _, u := range units {
					u.sim.Enqueue(u.sim.NewPacket(src, dst, vnet, ln, r))
				}
			}
		}
		for _, u := range units {
			u.step()
		}
		for _, u := range units[1:] {
			if u.sim.Stats != ref.Stats {
				t.Fatalf("cycle %d: stats diverged\nrefmodel: %+v\n%s: %+v",
					cyc, ref.Stats, u.name, u.sim.Stats)
			}
			if u.sim.InFlight() != ref.InFlight() || u.sim.QueuedPackets() != ref.QueuedPackets() {
				t.Fatalf("cycle %d: occupancy diverged (%s)", cyc, u.name)
			}
		}
		if cyc%checkEvery == checkEvery-1 {
			for _, u := range units {
				if err := checkUnit(cyc, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, u := range units[1:] {
		c := u.sim.StepperCounters()
		if c.QuietCycles+c.DenseCycles != cycles {
			t.Errorf("%s: counters don't partition the run: %+v", u.name, c)
		}
		if u.sim.Shards() > 1 && c.ParallelCycles < window/2 {
			t.Errorf("%s: parallel sweep ran %d cycles of a %d-cycle saturated window", u.name, c.ParallelCycles, window)
		}
	}
}

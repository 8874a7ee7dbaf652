package refmodel

// Differential coverage at saturation — the regime where nearly every
// router is active every cycle and the fused bitset allocation pass does
// all the arbitration. The randomized harness (diff_test.go) mostly
// offers loads below that; this test drives a mesh past saturation and
// asserts cycle-exactness against the refmodel precisely where that code
// runs, with the counters pinned so the claim is not vacuous.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// saturatedSBFleet builds a refmodel unit and a Step unit, both Static
// Bubble over mkTopo() and cfg, offers every alive node a packet with
// probability rate per cycle for the first window cycles, and demands
// equal Stats and occupancy after every cycle.
func saturatedSBFleet(t *testing.T, mkTopo func() *topology.Topology, cfg network.Config, cycles, window int, rate float64) []*unit {
	t.Helper()
	units := []*unit{{name: "refmodel"}, {name: "step"}}
	for _, u := range units {
		u.sim = network.New(mkTopo(), cfg, rand.New(rand.NewSource(7)))
		u.ctl = core.Attach(u.sim, core.Options{})
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
				vnet := hrng.Intn(network.NumVnets)
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
	return units
}

func TestDifferentialDenseSaturated(t *testing.T) {
	const (
		cycles = 2200
		window = 1600
	)
	mesh := func() *topology.Topology { return topology.NewMesh(8, 8) }
	units := saturatedSBFleet(t, mesh, network.Config{}, cycles, window, 0.30)
	step := units[1].sim
	if c := step.StepperCounters(); c.QuietCycles != 0 || c.DenseCycles != cycles {
		t.Errorf("want %d swept cycles and none skipped, got %+v", cycles, c)
	}
}

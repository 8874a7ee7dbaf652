package refmodel

// Differential coverage at saturation — the regime where nearly every
// router is active every cycle, the fused bitset allocation pass does
// all the arbitration, and every busy cycle of a sharded Sim takes the
// parallel sweep. The randomized harness (diff_test.go) mostly offers
// loads below that; this test drives a mesh past saturation and
// asserts cycle-exactness against the refmodel and across shard counts
// precisely where that code runs, with the counters pinned so the claim
// is not vacuous. A second fleet runs the same drive over a Config whose
// slot space exceeds a machine word, where none of that code runs: no
// occupancy mirror, the generic AllocateNode per active router, and the
// FSM scan's slot-walk fallback.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// saturatedSBFleet builds a refmodel unit plus one Step unit per entry of
// shards, all Static Bubble over mkTopo() and cfg, offers every alive
// node a packet with probability rate per cycle for the first window
// cycles, and demands equal Stats and occupancy after every cycle.
func saturatedSBFleet(t *testing.T, mkTopo func() *topology.Topology, cfg network.Config, shards []int, cycles, window int, rate float64) []*unit {
	t.Helper()
	units := []*unit{{name: "refmodel"}}
	for _, n := range shards {
		units = append(units, &unit{name: fmt.Sprintf("step/shards%d", n)})
	}
	for i, u := range units {
		c := cfg
		if i > 0 {
			c.Shards = shards[i-1]
		}
		u.sim = network.New(mkTopo(), c, rand.New(rand.NewSource(7)))
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
	return units
}

func TestDifferentialDenseSaturated(t *testing.T) {
	const (
		cycles = 2200
		window = 1600
	)
	mesh := func() *topology.Topology { return topology.NewMesh(8, 8) }
	units := saturatedSBFleet(t, mesh, network.Config{}, []int{1, 2, 4}, cycles, window, 0.30)
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

// TestDifferentialWideSlotSpace: 3 vnets x 5 VCs x 5 ports + the bubble
// is 76 allocation candidates, past the 64 a request word holds.
func TestDifferentialWideSlotSpace(t *testing.T) {
	const cycles = 5000
	irregular := func() *topology.Topology {
		return topology.RandomIrregular(8, 8, topology.LinkFaults, 10, 3)
	}
	// 0.1 packets of mean length 3: 0.3 flits/node/cycle.
	units := saturatedSBFleet(t, irregular, network.Config{VCsPerVnet: 5}, []int{1, 4}, cycles, cycles, 0.10)
	for _, u := range units {
		if _, ok := u.sim.OccupancyMirror(geom.NodeID(0)); ok {
			t.Errorf("%s: occupancy mirror enabled — the slot space fits a word after all", u.name)
		}
		if c := u.sim.StepperCounters(); c.ParallelCycles != 0 {
			t.Errorf("%s: %d parallel cycles without the fused pass", u.name, c.ParallelCycles)
		}
	}
	if st := units[0].sim.Stats; st.DeadlockRecoveries == 0 || st.Delivered == 0 {
		t.Errorf("vacuous: %d recoveries, %d delivered", st.DeadlockRecoveries, st.Delivered)
	}
}

package refmodel

// Bubble-flow-control units of the differential corpus. The ring rule
// (network.Ring, written by bfc.Attach) is state both allocation paths
// read: the refmodel's full scan prunes ring entries in the generic
// gather, Step's fused pass strips them per vnet, and a sharded Sim
// counts the downstream pool on its shard workers. The run puts Static
// Bubble recovery beside a boundary ring, so fences, bubbles and ring
// entries meet at the same output ports.

import (
	"math/rand"
	"testing"

	"repro/internal/bfc"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestDifferentialRingEntry(t *testing.T) {
	const (
		cycles   = 5000
		window   = 2000
		rate     = 0.13 // uniform packets per node per cycle, vnets 1-2
		ringRate = 0.05 // ring packets per ring node per cycle, vnet 0
	)
	mkTopo := func() *topology.Topology {
		// 6x6 with four interior link faults: the boundary ring is intact.
		topo := topology.NewMesh(6, 6)
		at := func(x, y int) geom.NodeID { return topo.ID(geom.Coord{X: x, Y: y}) }
		topo.DisableLink(at(1, 2), geom.East)
		topo.DisableLink(at(2, 3), geom.North)
		topo.DisableLink(at(3, 1), geom.North)
		topo.DisableLink(at(3, 3), geom.East)
		return topo
	}
	// The bare twin is the same run without the ring rule.
	units := []*unit{{name: "refmodel"}, {name: "step"}, {name: "shards2"}, {name: "shards4"}, {name: "bare"}}
	for i, u := range units {
		topo := mkTopo()
		u.sim = network.New(topo, network.Config{Shards: []int{1, 1, 2, 4, 1}[i]}, rand.New(rand.NewSource(1)))
		u.ctl = core.Attach(u.sim, core.Options{TDD: 24})
		u.step = u.sim.Step
		if i == 0 {
			u.step = New(u.sim).Step
			u.sim.SetPooling(false)
		}
		if u.name != "bare" {
			if err := bfc.Attach(u.sim, bfc.BoundaryRing(topo)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := units[0].sim
	ring := bfc.BoundaryRing(ref.Topo)
	min := routing.NewMinimal(ref.Topo)
	alive := ref.Topo.AliveRouters()
	hrng := rand.New(rand.NewSource(2))
	enqueue := func(src, dst geom.NodeID, vnet, ln int, r routing.Route) {
		for _, u := range units {
			u.sim.Enqueue(u.sim.NewPacket(src, dst, vnet, ln, r))
		}
	}

	for cyc := 0; cyc < cycles; cyc++ {
		if cyc < window {
			for _, src := range alive {
				if hrng.Float64() >= rate {
					continue
				}
				dst := alive[hrng.Intn(len(alive))]
				if r, ok := min.Route(src, dst, hrng); ok && dst != src {
					enqueue(src, dst, 1+hrng.Intn(2), 1+4*hrng.Intn(2), r)
				}
			}
			for i, src := range ring.Nodes {
				if hrng.Float64() >= ringRate {
					continue
				}
				var r routing.Route
				dst := src
				for k := 1 + hrng.Intn(ring.Len()/2); k > 0; k-- {
					d := ring.Dirs[(i+len(r))%ring.Len()]
					r = append(r, d)
					dst = ref.Topo.Neighbor(dst, d)
				}
				enqueue(src, dst, 0, 5, r)
			}
		}
		for _, u := range units {
			u.step()
		}
		for _, u := range units[1:4] {
			if u.sim.Stats != ref.Stats {
				t.Fatalf("cycle %d: stats diverged\nrefmodel: %+v\n%s: %+v", cyc, ref.Stats, u.name, u.sim.Stats)
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

	if bare := units[4].sim.Stats; bare == ref.Stats {
		t.Error("vacuous: the run without the ring rule has the same Stats")
	}
	if ref.Stats.DeadlockRecoveries == 0 {
		t.Error("vacuous: Static Bubble never recovered")
	}
	for _, u := range units[2:4] {
		if c := u.sim.StepperCounters(); c.ParallelCycles == 0 {
			t.Errorf("%s never ran the parallel sweep: %+v", u.name, c)
		}
	}
}

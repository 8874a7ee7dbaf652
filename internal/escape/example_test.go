package escape_test

import (
	"fmt"
	"math/rand"

	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The escape-VC baseline: minimal deadlock-prone routes plus a reserved
// escape channel over the spanning tree for timed-out packets.
func ExampleAttach() {
	topo := topology.NewMesh(2, 2)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ud := routing.NewUpDown(topo)
	escape.Attach(sim, ud)

	// A guaranteed deadlock: every node streams two hops clockwise.
	hops := map[geom.NodeID]geom.Direction{0: geom.North, 2: geom.East, 3: geom.South, 1: geom.West}
	total := 0
	for _, n := range []geom.NodeID{0, 2, 3, 1} {
		d1 := hops[n]
		mid := topo.Neighbor(n, d1)
		d2 := hops[mid]
		for k := 0; k < 12; k++ {
			sim.Enqueue(sim.NewPacket(n, topo.Neighbor(mid, d2), 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	sim.Run(20000)
	fmt.Println("delivered:", sim.Stats.Delivered == int64(total))
	fmt.Println("escape path used:", sim.Stats.EscapeTransfers > 0)
	// Output:
	// delivered: true
	// escape path used: true
}

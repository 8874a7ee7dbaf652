package reconfig_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// Gracefully power-gating a router on a live network: routes avoid it
// immediately, Tick powers it off once drained, and no packet is ever
// lost.
func ExampleManager_Tick() {
	topo := topology.NewMesh(6, 6)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(sim, core.Options{})
	mgr := reconfig.New(sim)

	victim := topo.ID(geom.Coord{X: 3, Y: 3})
	if _, err := mgr.Submit(reconfig.Event{Kind: reconfig.EvGate, Node: victim}); err != nil {
		panic(err)
	}
	// Idle network: the gate completes on the first Tick.
	gated := mgr.Tick()
	fmt.Println("gated:", gated)
	fmt.Println("alive:", topo.RouterAlive(victim))
	fmt.Println("lost:", sim.Stats.Lost)
	// Output:
	// gated: [21]
	// alive: false
	// lost: 0
}

// An abrupt link failure mid-flight: affected traffic is rerouted in
// place.
func ExampleManager_Submit() {
	topo := topology.NewMesh(4, 2)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	mgr := reconfig.New(sim)
	r, _ := mgr.Route(0, 3)
	p := sim.NewPacket(0, 3, 0, 5, r)
	sim.Enqueue(p)
	sim.Run(4) // in flight
	mgr.Submit(reconfig.Event{Kind: reconfig.EvFailLink, Node: 2, Dir: geom.East})
	sim.Run(80)
	fmt.Println("delivered:", p.DeliveredAt >= 0)
	fmt.Println("rerouted:", mgr.Rerouted >= 1)
	// Output:
	// delivered: true
	// rerouted: true
}

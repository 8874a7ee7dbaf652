// Package adaptive provides per-hop adaptive minimal routing: at every
// router a packet picks, among the outputs that lie on a shortest path to
// its destination, the one whose downstream input port currently has the
// most free buffers. This is the fully adaptive operating mode the
// paper's Fig. 2 methodology describes ("randomly chooses from one of its
// possible minimal routes without any routing restrictions") with a
// congestion-aware tie-break — deadlock-prone by construction, and
// therefore exactly what Static Bubble exists to protect.
//
// Packets under this scheme carry no source route. The scheme is the
// simulator's hop class (network/hopclass.go) over the compiled minimal
// mask table: the rule is state the allocator reads, so an adaptive run
// keeps the fused allocation pass and the parallel sweep.
package adaptive

import (
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// Controller creates packets for, and answers reachability on, a
// simulator routed adaptively.
type Controller struct {
	sim *network.Sim
	min *routing.Minimal
}

// Attach installs adaptive minimal routing on s as its hop class, which
// answers for every packet. An escape class's tree hop would never be
// followed, so AttachHopClass refuses a Sim that has one (and the
// reverse); Static Bubble composes fine. The routing tables come from the
// shared compiled-table cache, so s.Topo must not be mutated after
// Attach: a mask bit onto a link disabled later is pruned by the
// allocator and the packet waits.
func Attach(s *network.Sim) *Controller {
	c := &Controller{sim: s, min: routing.MinimalFor(s.Topo)}
	s.AttachHopClass(c.min)
	return c
}

// Reachable reports whether dst is reachable from src (for source-side
// admission).
func (c *Controller) Reachable(src, dst geom.NodeID) bool {
	return c.min.Reachable(src, dst)
}

// NewPacket creates a routeless packet for the adaptive scheme.
func (c *Controller) NewPacket(src, dst geom.NodeID, vnet, length int) *network.Packet {
	return c.sim.NewPacket(src, dst, vnet, length, nil)
}

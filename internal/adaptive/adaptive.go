// Package adaptive provides per-hop adaptive minimal routing: at every
// router a packet picks, among the outputs that lie on a shortest path to
// its destination, the one whose downstream input port currently has the
// most free buffers. This is the fully adaptive operating mode the
// paper's Fig. 2 methodology describes ("randomly chooses from one of its
// possible minimal routes without any routing restrictions") with a
// congestion-aware tie-break — deadlock-prone by construction, and
// therefore exactly what Static Bubble exists to protect.
//
// Packets under this scheme carry no source route; the simulator's
// OutputOverride supplies every hop.
package adaptive

import (
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// Controller supplies adaptive outputs for all packets of a simulator.
type Controller struct {
	sim *network.Sim
	min *routing.Minimal
}

// Attach installs adaptive minimal routing on s. It takes over the
// simulator's OutputOverride, which answers for every packet and so
// outranks an escape class's tree hop: the escape-VC baseline is
// incompatible with it by design — Static Bubble composes fine. The routing tables come from the shared compiled-table
// cache, so s.Topo must not be mutated after Attach.
func Attach(s *network.Sim) *Controller {
	c := &Controller{sim: s, min: routing.MinimalFor(s.Topo)}
	// The override probes downstream buffer occupancy mid-phase; like
	// every hook it runs on the stepping goroutine, in sweep order.
	s.OutputOverride = c.output
	return c
}

// Reachable reports whether dst is reachable from src (for source-side
// admission).
func (c *Controller) Reachable(src, dst geom.NodeID) bool {
	return c.min.Reachable(src, dst)
}

// output picks the next hop for p at router `at`. The minimal candidate
// set is one compiled mask load; only the congestion probe touches live
// simulator state.
func (c *Controller) output(p *network.Packet, at geom.NodeID) (geom.Direction, bool) {
	if at == p.Dst {
		return geom.Local, true
	}
	m := c.min.NextHopMask(at, p.Dst)
	if m == 0 {
		// Destination unreachable from here (runtime fault after
		// injection): park the packet (an Invalid want is never granted);
		// the reconfig layer is responsible for repair. Returning
		// ok=false instead would fall back to the (empty) source route
		// and misdeliver the packet here.
		return geom.Invalid, true
	}
	best := geom.Invalid
	bestFree := -1
	// Mask bits enumerate in N,E,S,W order, so the first-strictly-greater
	// tie-break prefers the earlier direction among equally free ones.
	for i := 0; i < geom.NumLinkDirs; i++ {
		if m&(1<<uint(i)) == 0 {
			continue
		}
		d := geom.Direction(i)
		free := c.freeVCs(c.min.NeighborOf(at, d), d.Opposite(), p.Vnet)
		if free > bestFree {
			best, bestFree = d, free
		}
	}
	return best, true // Invalid parks the packet when no minimal hop is alive
}

// freeVCs counts free buffers of vnet at router n's input port.
func (c *Controller) freeVCs(n geom.NodeID, in geom.Direction, vnet int) int {
	r := &c.sim.Routers[n]
	base := vnet * c.sim.Cfg.VCsPerVnet
	free := 0
	for i := 0; i < c.sim.Cfg.VCsPerVnet; i++ {
		if r.In[in][base+i].Empty(c.sim.Now) {
			free++
		}
	}
	return free
}

// NewPacket creates a routeless packet for the adaptive scheme.
func (c *Controller) NewPacket(src, dst geom.NodeID, vnet, length int) *network.Packet {
	return c.sim.NewPacket(src, dst, vnet, length, nil)
}

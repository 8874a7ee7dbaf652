// Package bfc implements classic (localized) Bubble Flow Control for ring
// sub-networks of a mesh — the technique whose theory Static Bubble
// builds on (paper Section II-C, citing Puente et al.'s adaptive bubble
// router): a ring can never deadlock as long as at least one packet
// buffer in it stays free, so entering the ring is only allowed when it
// would leave a bubble behind; in-transit ring traffic is never blocked
// by the rule.
//
// The rule is an admission condition on one output port of each ring
// router, so it lives in the simulator's allocator (network.Ring) beside
// the is_deadlock fence; this package supplies rings and writes them
// there. It exists both as a faithful substrate reproduction and as an
// executable statement of the invariant Static Bubble generalizes: BFC
// maintains a bubble statically by gating entry; Static Bubble creates
// one dynamically after detection.
package bfc

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/topology"
)

// Ring is a directed cycle of routers: the packet at Nodes[i] proceeds to
// Nodes[i+1] via Dirs[i]. Construct by hand or with BoundaryRing.
type Ring struct {
	Nodes []geom.NodeID
	Dirs  []geom.Direction
}

// Len returns the number of hops in the ring.
func (r Ring) Len() int { return len(r.Nodes) }

// Validate checks the ring is a closed walk over alive channels with no
// repeated nodes.
func (r Ring) Validate(t *topology.Topology) error {
	if len(r.Nodes) < 4 || len(r.Nodes) != len(r.Dirs) {
		return fmt.Errorf("bfc: ring needs ≥4 nodes and matching dirs")
	}
	seen := map[geom.NodeID]bool{}
	for i, n := range r.Nodes {
		if seen[n] {
			return fmt.Errorf("bfc: ring revisits node %v", n)
		}
		seen[n] = true
		if !t.HasLink(n, r.Dirs[i]) {
			return fmt.Errorf("bfc: ring hop %d uses dead channel %v→%v", i, n, r.Dirs[i])
		}
		if t.Neighbor(n, r.Dirs[i]) != r.Nodes[(i+1)%len(r.Nodes)] {
			return fmt.Errorf("bfc: ring hop %d does not reach the next node", i)
		}
	}
	return nil
}

// Next returns the ring direction out of node n, or Invalid if n is not
// on the ring.
func (r Ring) Next(n geom.NodeID) geom.Direction {
	for i, rn := range r.Nodes {
		if rn == n {
			return r.Dirs[i]
		}
	}
	return geom.Invalid
}

// BoundaryRing returns the clockwise boundary cycle of a healthy
// width×height mesh (width, height ≥ 2): east along the bottom row, north
// up the right column, west along the top, south down the left.
func BoundaryRing(t *topology.Topology) Ring {
	w, h := t.Width(), t.Height()
	var ring Ring
	add := func(c geom.Coord, d geom.Direction) {
		ring.Nodes = append(ring.Nodes, t.ID(c))
		ring.Dirs = append(ring.Dirs, d)
	}
	for x := 0; x < w-1; x++ {
		add(geom.Coord{X: x, Y: 0}, geom.East)
	}
	for y := 0; y < h-1; y++ {
		add(geom.Coord{X: w - 1, Y: y}, geom.North)
	}
	for x := w - 1; x > 0; x-- {
		add(geom.Coord{X: x, Y: h - 1}, geom.West)
	}
	for y := h - 1; y > 0; y-- {
		add(geom.Coord{X: 0, Y: y}, geom.South)
	}
	return ring
}

// Attach installs bubble flow control for the given rings on s: every
// ring node's Router.Ring names the port ring transit arrives on and the
// ring output, and the switch allocator then holds a packet entering the
// ring while the downstream ring port has fewer than 2 free VCs of its
// vnet (network.Ring). Rings must be valid and must not overlap each
// other or a ring attached before; on error s is left unchanged.
func Attach(s *network.Sim, rings ...Ring) error {
	for k, r := range rings {
		if err := r.Validate(s.Topo); err != nil {
			return err
		}
		for _, n := range r.Nodes {
			overlap := s.Routers[n].Ring.Active
			for _, prev := range rings[:k] {
				overlap = overlap || prev.Next(n) != geom.Invalid
			}
			if overlap {
				return fmt.Errorf("bfc: rings overlap at node %v", n)
			}
		}
	}
	for _, r := range rings {
		for i, n := range r.Nodes {
			arrival := r.Dirs[(i+len(r.Nodes)-1)%len(r.Nodes)].Opposite()
			s.Routers[n].Ring = network.Ring{Active: true, In: arrival, Out: r.Dirs[i]}
		}
	}
	return nil
}

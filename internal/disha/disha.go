// Package disha implements the token-based deadlock-recovery scheme of
// Anjan & Pinkston (ISCA'95) that the paper discusses as background
// (Section II-B): deadlocks are detected with per-buffer timeout
// counters; a single token circulates the network on a fixed Hamiltonian
// cycle; a router holding a timed-out packet captures the token and
// drains that packet through a dedicated network of deadlock buffers
// (one per router) routed XY, releasing the token on delivery.
//
// The package exists to make the paper's argument executable: DISHA
// works on a healthy mesh, but on an irregular topology (a) the token's
// fixed circulation path breaks the moment one of its links dies, and
// (b) XY routing over the dedicated buffers cannot reach around faults —
// so recovery silently stops. See the package tests.
package disha

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/topology"
)

// Options configures the controller.
type Options struct {
	// Timeout is the per-buffer deadlock-detection threshold in cycles.
	// Default 34.
	Timeout int64
}

// Controller runs DISHA over a simulator.
type Controller struct {
	sim *network.Sim
	opt Options
	// path is the token's Hamiltonian circulation cycle.
	path []geom.NodeID
	// pathIdx locates each router on the path (-1 if absent).
	pathIdx []int
	// tokenPos indexes path; tokenNextMove is the cycle of its next hop.
	tokenPos      int
	tokenNextMove int64
	// tokenHeldBy is the router draining a packet, or InvalidNode;
	// tokenReleaseAt is when the drain completes.
	tokenHeldBy    geom.NodeID
	tokenReleaseAt int64
	// timers per VC, as in the escape scheme: timers[id*BubbleIndex+ci]
	// for router id's buffer ci (the bubble has none).
	timers []vcTimer

	// Recoveries counts packets drained through the deadlock-buffer
	// network; TokenStalls counts cycles the token could not advance
	// because its next path link is dead.
	Recoveries  int64
	TokenStalls int64
}

type vcTimer struct {
	pktID int64
	since int64
}

// HamiltonianCycle constructs the token's circulation path on a
// width×height mesh: serpentine over columns ≥1, returning down column 0.
// The mesh height must be even and both dimensions ≥2 (the classic
// existence condition DISHA relies on).
func HamiltonianCycle(width, height int) ([]geom.NodeID, error) {
	if width < 2 || height < 2 || height%2 != 0 {
		return nil, fmt.Errorf("disha: no Hamiltonian cycle construction for %dx%d (need height even, both ≥2)", width, height)
	}
	var path []geom.NodeID
	id := func(x, y int) geom.NodeID { return geom.Coord{X: x, Y: y}.IDOf(width) }
	for y := 0; y < height; y++ {
		if y%2 == 0 {
			start := 1
			if y == 0 {
				start = 0 // include (0,0) on the bottom row
			}
			for x := start; x < width; x++ {
				path = append(path, id(x, y))
			}
		} else {
			for x := width - 1; x >= 1; x-- {
				path = append(path, id(x, y))
			}
		}
	}
	for y := height - 1; y >= 1; y-- {
		path = append(path, id(0, y))
	}
	return path, nil
}

// Attach installs DISHA on s. The token path is the standard Hamiltonian
// cycle over the full mesh; it is fixed at attach time, exactly as in the
// original design — runtime topology changes are NOT accommodated (that
// is the point the paper makes).
func Attach(s *network.Sim, opt Options) (*Controller, error) {
	if opt.Timeout == 0 {
		opt.Timeout = 34
	}
	path, err := HamiltonianCycle(s.Topo.Width(), s.Topo.Height())
	if err != nil {
		return nil, err
	}
	c := &Controller{
		sim:         s,
		opt:         opt,
		path:        path,
		pathIdx:     make([]int, s.Topo.NumNodes()),
		tokenHeldBy: geom.InvalidNode,
		timers:      make([]vcTimer, s.Topo.NumNodes()*network.BubbleIndex),
	}
	for i := range c.pathIdx {
		c.pathIdx[i] = -1
	}
	for i, n := range path {
		c.pathIdx[n] = i
	}
	s.PostCycle = append(s.PostCycle, func(sim *network.Sim) { c.tick() })
	return c, nil
}

// TokenPathIntact reports whether every link of the token's fixed
// circulation cycle is still alive — once false, DISHA can no longer
// recover deadlocks at routers beyond the break.
func (c *Controller) TokenPathIntact() bool {
	for i, n := range c.path {
		next := c.path[(i+1)%len(c.path)]
		d := geom.DirectionBetween(c.sim.Topo.Coord(n), c.sim.Topo.Coord(next))
		if d == geom.Invalid || !c.sim.Topo.HasLink(n, d) {
			return false
		}
	}
	return true
}

// tick advances timers, circulates the token, and performs captures.
func (c *Controller) tick() {
	s := c.sim
	now := s.Now

	// Release the token when a drain completes.
	if c.tokenHeldBy != geom.InvalidNode && now >= c.tokenReleaseAt {
		c.tokenHeldBy = geom.InvalidNode
	}

	// Token circulation (idle token only).
	if c.tokenHeldBy == geom.InvalidNode && now >= c.tokenNextMove {
		cur := c.path[c.tokenPos]
		next := c.path[(c.tokenPos+1)%len(c.path)]
		d := geom.DirectionBetween(s.Topo.Coord(cur), s.Topo.Coord(next))
		if d == geom.Invalid || !s.Topo.HasLink(cur, d) {
			// The fixed circulation path is broken: the token is stuck.
			// (DISHA has no mechanism to recompute it at runtime.)
			c.TokenStalls++
			c.tokenNextMove = now + network.HopLatency
		} else {
			c.tokenPos = (c.tokenPos + 1) % len(c.path)
			c.tokenNextMove = now + network.HopLatency
		}
	}

	// Timers and capture.
	tokenRouter := c.path[c.tokenPos]
	for id := range s.Routers {
		r := &s.Routers[id]
		if r.Occupied() == 0 {
			continue
		}
		for ci := 0; ci < network.BubbleIndex; ci++ {
			p := r.Buf(ci).Pkt
			tm := &c.timers[id*network.BubbleIndex+ci]
			if p == nil {
				tm.pktID = 0
				continue
			}
			if tm.pktID != p.ID {
				tm.pktID = p.ID
				tm.since = now
				continue
			}
			if now-tm.since < c.opt.Timeout {
				continue
			}
			// Timed out: capture the token if it is here and free.
			if c.tokenHeldBy != geom.InvalidNode || tokenRouter != geom.NodeID(id) {
				continue
			}
			if !c.drain(geom.NodeID(id), ci) {
				continue
			}
			tm.pktID = 0
			return // one capture per cycle (single token)
		}
	}
}

// drain moves the packet through the dedicated deadlock-buffer network:
// XY routing, exclusive access (token-held), one hop per network.HopLatency.
// It fails — and DISHA provides no recourse — if the XY path to the
// destination crosses a dead link.
func (c *Controller) drain(at geom.NodeID, ci int) bool {
	s := c.sim
	p := s.Routers[at].Buf(ci).Pkt
	hops, ok := xyDistance(s.Topo, at, p.Dst)
	if !ok {
		return false // XY path broken: the paper's second failure mode
	}
	delay := int64(hops)*network.HopLatency + int64(p.Len)
	deliverAt := s.Now + delay
	s.DeliverOutOfBand(at, ci, deliverAt)
	c.Recoveries++
	// The token is held until the drain completes, then released in
	// place.
	c.tokenHeldBy = at
	c.tokenReleaseAt = deliverAt
	c.tokenNextMove = deliverAt
	return true
}

// xyDistance walks the XY path from src to dst over alive channels.
func xyDistance(t *topology.Topology, src, dst geom.NodeID) (int, bool) {
	cur := src
	hops := 0
	step := func(d geom.Direction) bool {
		if !t.HasLink(cur, d) {
			return false
		}
		cur = t.Neighbor(cur, d)
		hops++
		return true
	}
	b := t.Coord(dst)
	for t.Coord(cur).X < b.X {
		if !step(geom.East) {
			return 0, false
		}
	}
	for t.Coord(cur).X > b.X {
		if !step(geom.West) {
			return 0, false
		}
	}
	for t.Coord(cur).Y < b.Y {
		if !step(geom.North) {
			return 0, false
		}
	}
	for t.Coord(cur).Y > b.Y {
		if !step(geom.South) {
			return 0, false
		}
	}
	return hops, true
}

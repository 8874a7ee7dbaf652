// Package escape implements the paper's second baseline (Section II-B,
// V-B): deadlock recovery with escape virtual channels. Packets travel on
// minimal, deadlock-prone source routes in the regular VCs; one VC per
// vnet per input port is reserved as the escape channel. A per-VC timer
// detects packets stuck beyond a threshold and moves them to escape
// routing: from then on they follow a deadlock-free spanning-tree path
// (up/down tree routing, Router Parking style) and may only occupy escape
// VCs, which the tree's acyclicity guarantees will drain.
//
// The reservation (VC index network.EscapeVC) and the tree routing are
// an escape class the simulator reads as data (network.AttachEscapeClass;
// a rebuilt tree goes to Sim.SetEscapeTree), so an escape run keeps the
// fused allocation pass; this package owns the
// policy, one PostCycle hook that promotes a packet once it has sat in
// the same buffer for Timeout cycles. The hook is driven by deadlines,
// not by a scan: the simulator records each buffer's fill cycle, and a
// router's buffers are walked only on the cycle its earliest resident
// could time out.
package escape

import (
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// Timeout is the stuck-packet threshold in cycles before a packet moves
// to escape routing: the paper uses a timer comparable to the SB
// detection threshold, t_DD = 34.
const Timeout = 34

// Controller wires escape-VC recovery into a simulator.
type Controller struct {
	sim *network.Sim
	// due[id] is a lower bound on the cycle at which a packet buffered at
	// router id can time out: the earliest deadline (fill cycle + Timeout)
	// among the regular packets found there by the last walk, capped by
	// that walk's cycle + Timeout + 1 — a packet that arrived later cannot
	// time out sooner. soonest is the minimum over due.
	due     []int64
	soonest int64
}

// Attach installs escape-VC recovery on s using the given spanning tree
// for the escape paths: the escape class (escape VCs reserved, escaped
// packets follow the tree) and the timeout hook. The tree is all it
// needs — a routing.UpDown holds no per-destination table.
func Attach(s *network.Sim, ud *routing.UpDown) *Controller {
	c := &Controller{
		sim: s,
		due: make([]int64, s.Topo.NumNodes()),
	}
	s.AttachEscapeClass(ud)
	s.PostCycle = append(s.PostCycle, c.promoteDue)
	return c
}

// promoteDue moves every packet that has sat in its buffer for the
// timeout to escape routing, visiting only routers whose bound has come
// due.
func (c *Controller) promoteDue(s *network.Sim) {
	now := s.Now
	if now < c.soonest {
		return
	}
	soonest := int64(math.MaxInt64)
	for id, at := range c.due {
		if at <= now {
			at = c.walk(geom.NodeID(id), now)
			c.due[id] = at
		}
		if at < soonest {
			soonest = at
		}
	}
	c.soonest = soonest
}

// walk promotes router id's expired packets and returns its next bound.
// Escaped packets and the static bubble's occupant carry no timer.
func (c *Controller) walk(id geom.NodeID, now int64) int64 {
	s := c.sim
	next := now + Timeout + 1
	fill := s.FillCycles(id)
	for w := s.OccupancyMirror(id) &^ s.EscapedVector(id) &^ (1 << network.BubbleIndex); w != 0; w &= w - 1 {
		ci := bits.TrailingZeros64(w)
		if at := fill[ci] + Timeout; at <= now {
			s.PromoteEscape(id, ci)
		} else if at < next {
			next = at
		}
	}
	return next
}

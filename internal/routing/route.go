// Package routing computes source routes over mesh-derived irregular
// topologies. It provides the three route families used in the paper's
// evaluation (Section II-D, V-B):
//
//   - Minimal: randomized shortest paths over the surviving topology with
//     no routing restrictions — deadlock-prone, used by Static Bubble and
//     by the regular VCs of the escape-VC baseline.
//   - XY: dimension-ordered routing for healthy meshes (deadlock-free on a
//     full mesh, inapplicable to irregular topologies).
//   - UpDown: Ariadne-style spanning-tree up*/down* routing — deadlock-free
//     on any connected topology, possibly non-minimal. Baseline 1, and the
//     escape-path routing of baseline 2.
package routing

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/topology"
)

// Route is the sequence of output ports a packet takes, one per hop, from
// source to destination; ejection at the destination is implicit.
type Route []geom.Direction

func (r Route) String() string {
	s := ""
	for i, d := range r {
		if i > 0 {
			s += ","
		}
		s += d.String()
	}
	return "[" + s + "]"
}

// Len returns the hop count of the route.
func (r Route) Len() int { return len(r) }

// Dest returns the node reached by following r from src.
func (r Route) Dest(t *topology.Topology, src geom.NodeID) geom.NodeID {
	cur := src
	for _, d := range r {
		cur = t.Neighbor(cur, d)
		if cur == geom.InvalidNode {
			return geom.InvalidNode
		}
	}
	return cur
}

// Validate checks that r is walkable from src to dst over alive channels
// of t, and contains no U-turns.
func (r Route) Validate(t *topology.Topology, src, dst geom.NodeID) error {
	cur := src
	prev := geom.Invalid
	for i, d := range r {
		if !d.IsLink() {
			return fmt.Errorf("routing: hop %d is %v, not a link direction", i, d)
		}
		if prev != geom.Invalid && d == prev.Opposite() {
			return fmt.Errorf("routing: U-turn at hop %d of %v", i, r)
		}
		if !t.HasLink(cur, d) {
			return fmt.Errorf("routing: hop %d uses dead channel %v→%v", i, cur, d)
		}
		cur = t.Neighbor(cur, d)
		prev = d
	}
	if cur != dst {
		return fmt.Errorf("routing: route %v from %v ends at %v, want %v", r, src, cur, dst)
	}
	return nil
}

// Algorithm produces source routes over a fixed topology. Implementations
// are safe for sequential use; route sampling may consume rng.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Route returns a route from src to dst, or ok=false if dst is
	// unreachable from src under this algorithm.
	Route(src, dst geom.NodeID, rng *rand.Rand) (Route, bool)
}

// RouteAppender is an optional extension of Algorithm for callers that
// recycle route storage: AppendRoute writes the hops onto buf (growing it
// only when cap(buf) is too small) instead of allocating a fresh slice.
// The returned route must consume the rng exactly as Route would, so that
// swapping one for the other never perturbs a seeded trajectory.
type RouteAppender interface {
	AppendRoute(buf Route, src, dst geom.NodeID, rng *rand.Rand) (Route, bool)
}

// AppendRoute routes src→dst via a, appending onto buf when a supports
// RouteAppender and falling back to a.Route plus a copy otherwise. On
// ok=false buf is returned unchanged.
func AppendRoute(a Algorithm, buf Route, src, dst geom.NodeID, rng *rand.Rand) (Route, bool) {
	if ap, ok := a.(RouteAppender); ok {
		return ap.AppendRoute(buf, src, dst, rng)
	}
	r, ok := a.Route(src, dst, rng)
	if !ok {
		return buf, false
	}
	return append(buf, r...), true
}

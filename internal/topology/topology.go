// Package topology models the physical substrate of the NoC: an n×m mesh
// of routers and bidirectional links from which irregular topologies are
// derived by disabling routers and links (failures or power-gating), or by
// carving out heterogeneous accelerator tiles at design time.
//
// The package also provides the graph analyses the paper's evaluation
// rests on: connected components, shortest-path distances, undirected
// cycle detection ("deadlock-prone" in Fig. 2), and detection of cycles in
// the no-U-turn channel-dependency graph, which is the exact structure the
// static-bubble coverage lemma quantifies over.
package topology

import (
	"fmt"

	"repro/internal/geom"
)

// Topology is a mesh-derived network graph. Routers and directed links can
// be individually disabled. The zero value is not usable; construct with
// NewMesh.
type Topology struct {
	width, height int
	routerAlive   []bool
	// linkAlive[n][d] records whether the directed link from router n in
	// direction d is intact. Bidirectional faults clear both directions;
	// unidirectional faults (uDIREC-style) clear one. Always false for an
	// off-mesh position.
	linkAlive [][geom.NumLinkDirs]bool
	// nbr[n][d] is the mesh position one hop from n in direction d
	// (InvalidNode off-mesh): the geometry of the underlying mesh, which
	// faults never change, so clones share it.
	nbr [][geom.NumLinkDirs]geom.NodeID
}

// NewMesh returns a fully healthy width×height mesh.
func NewMesh(width, height int) *Topology {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("topology: invalid mesh size %dx%d", width, height))
	}
	n := width * height
	t := &Topology{
		width:       width,
		height:      height,
		routerAlive: make([]bool, n),
		linkAlive:   make([][geom.NumLinkDirs]bool, n),
		nbr:         make([][geom.NumLinkDirs]geom.NodeID, n),
	}
	for id := 0; id < n; id++ {
		t.routerAlive[id] = true
		c := geom.NodeID(id).CoordOf(width)
		for _, d := range geom.LinkDirs {
			t.nbr[id][d] = geom.InvalidNode
			if nc := c.Add(d); t.InBounds(nc) {
				t.nbr[id][d] = nc.IDOf(width)
				t.linkAlive[id][d] = true
			}
		}
	}
	return t
}

// Clone returns an independent deep copy.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		width:       t.width,
		height:      t.height,
		routerAlive: append([]bool(nil), t.routerAlive...),
		linkAlive:   append([][geom.NumLinkDirs]bool(nil), t.linkAlive...),
		nbr:         t.nbr,
	}
	return c
}

// Width returns the mesh width (routers per row).
func (t *Topology) Width() int { return t.width }

// Height returns the mesh height (routers per column).
func (t *Topology) Height() int { return t.height }

// NumNodes returns the total router count of the underlying mesh,
// including disabled routers.
func (t *Topology) NumNodes() int { return t.width * t.height }

// InBounds reports whether c lies on the underlying mesh.
func (t *Topology) InBounds(c geom.Coord) bool {
	return c.X >= 0 && c.X < t.width && c.Y >= 0 && c.Y < t.height
}

// Coord returns the coordinate of node n.
func (t *Topology) Coord(n geom.NodeID) geom.Coord { return n.CoordOf(t.width) }

// ID returns the NodeID at coordinate c; it panics if c is out of bounds.
func (t *Topology) ID(c geom.Coord) geom.NodeID {
	if !t.InBounds(c) {
		panic(fmt.Sprintf("topology: coordinate %v outside %dx%d mesh", c, t.width, t.height))
	}
	return c.IDOf(t.width)
}

// Neighbor returns the node one hop from n in direction d, or InvalidNode
// if that position is off-mesh. It does not consider faults; see HasLink.
func (t *Topology) Neighbor(n geom.NodeID, d geom.Direction) geom.NodeID {
	if !d.IsLink() || uint(n) >= uint(len(t.nbr)) {
		return geom.InvalidNode
	}
	return t.nbr[n][d]
}

// RouterAlive reports whether router n is present and on.
func (t *Topology) RouterAlive(n geom.NodeID) bool {
	return n >= 0 && int(n) < len(t.routerAlive) && t.routerAlive[n]
}

// DisableRouter removes router n (fault or power-gating). All its links
// become unusable implicitly via HasLink.
func (t *Topology) DisableRouter(n geom.NodeID) { t.routerAlive[n] = false }

// EnableRouter restores router n (e.g. power-gating wake-up).
func (t *Topology) EnableRouter(n geom.NodeID) { t.routerAlive[n] = true }

// DisableLink removes the bidirectional link between n and its neighbor in
// direction d. It is a no-op if no such link position exists.
func (t *Topology) DisableLink(n geom.NodeID, d geom.Direction) {
	nb := t.Neighbor(n, d)
	if nb == geom.InvalidNode {
		return
	}
	t.linkAlive[n][d] = false
	t.linkAlive[nb][d.Opposite()] = false
}

// EnableLink restores the bidirectional link between n and its neighbor in
// direction d.
func (t *Topology) EnableLink(n geom.NodeID, d geom.Direction) {
	nb := t.Neighbor(n, d)
	if nb == geom.InvalidNode {
		return
	}
	t.linkAlive[n][d] = true
	t.linkAlive[nb][d.Opposite()] = true
}

// DisableDirectedLink removes only the n→neighbor direction of a link
// (unidirectional failure, the uDIREC fault model).
func (t *Topology) DisableDirectedLink(n geom.NodeID, d geom.Direction) {
	if t.Neighbor(n, d) != geom.InvalidNode {
		t.linkAlive[n][d] = false
	}
}

// HasLink reports whether the directed channel from n in direction d is
// usable: both endpoint routers alive and the directed link intact.
func (t *Topology) HasLink(n geom.NodeID, d geom.Direction) bool {
	// linkAlive is false off-mesh, so nbr is only read where it names a
	// router.
	return t.RouterAlive(n) && d.IsLink() && t.linkAlive[n][d] && t.routerAlive[t.nbr[n][d]]
}

// LinkIntact reports whether the directed link from n toward d is
// itself intact, ignoring router liveness at either end. HasLink
// conflates a dead endpoint with a severed link; reconfig needs the
// distinction to make fail/recover-link events idempotent (failing a
// link whose endpoint router is down must still sever the wire, and
// recovering it must not double-apply).
func (t *Topology) LinkIntact(n geom.NodeID, d geom.Direction) bool {
	if !d.IsLink() || n < 0 || int(n) >= len(t.linkAlive) {
		return false
	}
	return t.Neighbor(n, d) != geom.InvalidNode && t.linkAlive[n][d]
}

// HasUndirectedLink reports whether traffic can flow in at least one
// direction between n and its neighbor in direction d.
func (t *Topology) HasUndirectedLink(n geom.NodeID, d geom.Direction) bool {
	nb := t.Neighbor(n, d)
	if nb == geom.InvalidNode {
		return false
	}
	return t.HasLink(n, d) || t.HasLink(nb, d.Opposite())
}

// AliveRouters returns the ids of all alive routers in ascending order.
func (t *Topology) AliveRouters() []geom.NodeID {
	out := make([]geom.NodeID, 0, len(t.routerAlive))
	for id, alive := range t.routerAlive {
		if alive {
			out = append(out, geom.NodeID(id))
		}
	}
	return out
}

// AliveRouterCount returns the number of alive routers.
func (t *Topology) AliveRouterCount() int {
	n := 0
	for _, alive := range t.routerAlive {
		if alive {
			n++
		}
	}
	return n
}

// UndirectedLink identifies a link by its lower-coordinate endpoint and a
// direction of North or East (the canonical orientation).
type UndirectedLink struct {
	From geom.NodeID
	Dir  geom.Direction
}

// AliveUndirectedLinks returns every link usable in at least one
// direction, in canonical (From ascending, North before East) order.
func (t *Topology) AliveUndirectedLinks() []UndirectedLink {
	var out []UndirectedLink
	for id := 0; id < t.NumNodes(); id++ {
		n := geom.NodeID(id)
		for _, d := range []geom.Direction{geom.North, geom.East} {
			if t.HasUndirectedLink(n, d) {
				out = append(out, UndirectedLink{n, d})
			}
		}
	}
	return out
}

// AliveLinkCount returns the number of links usable in at least one
// direction.
func (t *Topology) AliveLinkCount() int { return len(t.AliveUndirectedLinks()) }

// Degree returns the number of usable outgoing channels of router n.
func (t *Topology) Degree(n geom.NodeID) int {
	deg := 0
	for _, d := range geom.LinkDirs {
		if t.HasLink(n, d) {
			deg++
		}
	}
	return deg
}

func (t *Topology) String() string {
	return fmt.Sprintf("Topology(%dx%d, %d/%d routers, %d links)",
		t.width, t.height, t.AliveRouterCount(), t.NumNodes(), t.AliveLinkCount())
}

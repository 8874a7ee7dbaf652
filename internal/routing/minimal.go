package routing

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/topology"
)

// Minimal routes packets along true shortest paths of the (possibly
// irregular) topology, sampling uniformly at random among the minimal
// next hops at every node. This is the unrestricted, deadlock-prone
// routing that Static Bubble and the regular VCs of the escape-VC scheme
// use (paper Section II-D).
//
// A Minimal is compiled at construction: per-(node,dst) next-hop
// candidate masks over a flat snapshot of the topology (see table.go),
// safe for concurrent reads. A MinimalFor instance is immutable and keeps
// masks only; a NewMinimal one also keeps the all-pairs distances its
// Recompile repairs from, and changes only inside Recompile.
type Minimal struct {
	g   *topology.FlatGraph
	tab *tables
	// shared marks a MinimalFor instance: masks only, and Recompile
	// refuses it.
	shared bool
	// rep is Recompile's repair scratch, allocated at its first use.
	rep *minRepairer
}

// NewMinimal compiles a minimal router over t's current state, owned by
// the caller: later mutations of t are seen after Recompile (reconfig
// calls it per epoch). MinimalFor shares one immutable compile instead.
func NewMinimal(t *topology.Topology) *Minimal { return newMinimal(t, false) }

// newMinimal compiles t; a shared table keeps no distances.
func newMinimal(t *topology.Topology, shared bool) *Minimal {
	g := t.Flatten()
	return &Minimal{g: g, tab: compileMinimal(nil, g, !shared, compileWorkers(g.N)), shared: shared}
}

// Name implements Algorithm.
func (m *Minimal) Name() string { return "minimal" }

// tableBytes returns the compiled-table footprint for cache accounting.
func (m *Minimal) tableBytes() int64 { return m.g.Bytes() + m.tab.bytes() }

// Reachable reports whether dst can be reached from src: a live src
// when src == dst, else a nonzero candidate mask (a node at finite
// positive distance has a minimal next hop; the compile leaves
// unreachable and dead nodes at 0).
func (m *Minimal) Reachable(src, dst geom.NodeID) bool {
	if src == dst {
		return src >= 0 && int(src) < m.tab.n && m.g.Alive[src]
	}
	return m.NextHopMask(src, dst) != 0
}

// Distance returns the shortest directed-hop distance from src to dst, or
// -1 if unreachable. A shared table keeps no distances, so there it walks
// first-candidate hops: O(hops).
func (m *Minimal) Distance(src, dst geom.NodeID) int {
	if !m.Reachable(src, dst) {
		return -1
	}
	c := m.tab.cols[dst]
	if c.dist != nil {
		return int(c.dist[src])
	}
	hops := 0
	for cur := int(src); cur != int(dst); hops++ {
		cur = int(m.g.Next[geom.NumLinkDirs*cur+int(pickDir(c.mask[cur], nil))])
	}
	return hops
}

// NextHopMask returns the compiled candidate mask for (src, dst): bit i
// set means geom.LinkDirs[i] is a minimal next hop. Zero when src == dst,
// either node is out of range, or dst is unreachable from src. The
// adaptive controller scores exactly this candidate set per hop.
func (m *Minimal) NextHopMask(src, dst geom.NodeID) uint8 {
	n := m.tab.n
	if src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return 0
	}
	return m.tab.cols[dst].mask[src]
}

// NeighborOf returns the node reached over the usable channel src→d at
// compile time, or InvalidNode (flat-snapshot Neighbor/HasLink).
func (m *Minimal) NeighborOf(src geom.NodeID, d geom.Direction) geom.NodeID {
	return m.g.NeighborOf(src, d)
}

// Route implements Algorithm: it samples one shortest path uniformly at
// random among the minimal next hops at each step. With a nil rng the
// first minimal direction in N,E,S,W order is chosen (deterministic).
func (m *Minimal) Route(src, dst geom.NodeID, rng *rand.Rand) (Route, bool) {
	return m.AppendRoute(nil, src, dst, rng)
}

// AppendRoute implements RouteAppender: same sampling as Route, hops
// appended onto buf. The whole walk is table loads: one candidate-mask
// byte and one next-hop word per hop; a zero mask at src means dst is
// unreachable.
func (m *Minimal) AppendRoute(buf Route, src, dst geom.NodeID, rng *rand.Rand) (Route, bool) {
	if src == dst {
		return buf, int(src) < m.tab.n && src >= 0 && m.g.Alive[src]
	}
	n := m.tab.n
	if src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return buf, false
	}
	col := &m.tab.cols[dst]
	if !m.g.Alive[src] || col.mask[src] == 0 {
		return buf, false
	}
	route := buf
	cur := int(src)
	for cur != int(dst) {
		d := pickDir(col.mask[cur], rng)
		if d == geom.Invalid {
			// Cannot happen on a consistent distance table.
			return buf, false
		}
		route = append(route, d)
		cur = int(m.g.Next[geom.NumLinkDirs*cur+int(d)])
	}
	return route, true
}

// AppendRouteOneShot computes a single minimal route over t without
// compiling all-pairs tables: one reverse BFS for dst, then the same
// candidate walk (identical rng draws and picks as a compiled Minimal).
// For one-off queries on throwaway topology views — reconfig's
// pending-gate detours — where a full compile would be wasted.
func AppendRouteOneShot(t *topology.Topology, buf Route, src, dst geom.NodeID, rng *rand.Rand) (Route, bool) {
	if src == dst {
		return buf, t.RouterAlive(src)
	}
	hops := t.ReverseBFSDistances(dst)
	if !t.RouterAlive(src) || hops[src] < 0 {
		return buf, false
	}
	route := buf
	cur := src
	for cur != dst {
		var m uint8
		for i, d := range geom.LinkDirs {
			if !t.HasLink(cur, d) {
				continue
			}
			if hops[t.Neighbor(cur, d)] == hops[cur]-1 {
				m |= 1 << uint(i)
			}
		}
		d := pickDir(m, rng)
		if d == geom.Invalid {
			return buf, false
		}
		route = append(route, d)
		cur = t.Neighbor(cur, d)
	}
	return route, true
}

// XY routes dimension-ordered: all X (East/West) hops first, then all Y
// (North/South) hops. It is only valid on a fully healthy mesh; Route
// reports ok=false if any hop would use a dead channel.
type XY struct {
	topo *topology.Topology
}

// NewXY builds an XY router over t.
func NewXY(t *topology.Topology) *XY { return &XY{topo: t} }

// Name implements Algorithm.
func (x *XY) Name() string { return "xy" }

// Route implements Algorithm. rng is unused (XY is deterministic).
func (x *XY) Route(src, dst geom.NodeID, rng *rand.Rand) (Route, bool) {
	return x.AppendRoute(nil, src, dst, rng)
}

// AppendRoute implements RouteAppender.
func (x *XY) AppendRoute(buf Route, src, dst geom.NodeID, _ *rand.Rand) (Route, bool) {
	if !x.topo.RouterAlive(src) || !x.topo.RouterAlive(dst) {
		return buf, false
	}
	b := x.topo.Coord(dst)
	route := buf
	cur := src
	step := func(d geom.Direction) bool {
		if !x.topo.HasLink(cur, d) {
			return false
		}
		route = append(route, d)
		cur = x.topo.Neighbor(cur, d)
		return true
	}
	for x.topo.Coord(cur).X < b.X {
		if !step(geom.East) {
			return buf, false
		}
	}
	for x.topo.Coord(cur).X > b.X {
		if !step(geom.West) {
			return buf, false
		}
	}
	for x.topo.Coord(cur).Y < b.Y {
		if !step(geom.North) {
			return buf, false
		}
	}
	for x.topo.Coord(cur).Y > b.Y {
		if !step(geom.South) {
			return buf, false
		}
	}
	return route, true
}

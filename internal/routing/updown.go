package routing

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/topology"
)

// UpDown implements Ariadne-style spanning-tree up*/down* routing
// (paper Section II-A): a BFS spanning tree is built per connected
// component, every channel is classified as "up" (toward the root:
// strictly lower BFS level, ties broken by lower node id) or "down", and a
// legal route never takes an up channel after a down channel. This breaks
// every cyclic channel dependency, making the scheme deadlock-free on any
// surviving topology, at the cost of non-minimal paths.
//
// An UpDown is the spanning forest and the channel classification only —
// what both of the paper's baselines need (Section V-B: baseline 1 routes
// along the tree, baseline 2's escape VCs follow it). Construction is
// O(V+E) per root candidate, 64 candidates per kernel pass; nothing is
// compiled per (node, dst) pair. Instances are immutable and safe for
// concurrent use.
type UpDown struct {
	topo   *topology.Topology
	level  []int         // BFS level within the component; -1 if dead
	parent []geom.NodeID // BFS tree parent; InvalidNode at roots/dead
	root   []geom.NodeID // component root per node; InvalidNode if dead
	// upMask[n] has bit d set iff the channel n→d is an "up" channel
	// (usable, both levels known, toward the root ordering).
	upMask []uint8
}

// RootPolicy selects how the spanning-tree root of each component is
// chosen.
type RootPolicy int

// Root selection policies.
const (
	// RootMedian picks the 1-median of the component (minimum total
	// distance) — a stand-in for the tree-optimization heuristics of
	// uDIREC/Router Parking. This is the default.
	RootMedian RootPolicy = iota
	// RootLowestID picks the lowest-id alive node, modeling Ariadne's
	// topology-agnostic leader election (the tree is whatever the elected
	// node's BFS produces).
	RootLowestID
)

// String names the policy for compiled-table cache keys.
func (p RootPolicy) String() string {
	if p == RootLowestID {
		return "lowest_id"
	}
	return "median"
}

// NewUpDown constructs the spanning trees and classification for t with
// the RootMedian policy. The topology must not change afterwards.
func NewUpDown(t *topology.Topology) *UpDown {
	return NewUpDownRooted(t, RootMedian)
}

// NewUpDownRooted constructs the spanning trees and the channel
// classification using the given root policy.
func NewUpDownRooted(t *topology.Topology, policy RootPolicy) *UpDown {
	n := t.NumNodes()
	u := &UpDown{
		topo:   t,
		level:  make([]int, n),
		parent: make([]geom.NodeID, n),
		root:   make([]geom.NodeID, n),
		upMask: make([]uint8, n),
	}
	for i := range u.level {
		u.level[i] = -1
		u.parent[i] = geom.InvalidNode
		u.root[i] = geom.InvalidNode
	}
	var med *medianElection
	if policy == RootMedian {
		med = newMedianElection(t.Flatten())
	}
	for _, comp := range t.ConnectedComponents() {
		root := comp[0] // components are sorted: lowest id first
		if med != nil {
			root = med.chooseRoot(comp)
		}
		u.buildTree(root)
	}
	for id := 0; id < n; id++ {
		for i, d := range geom.LinkDirs {
			if u.isUpLive(geom.NodeID(id), d) {
				u.upMask[id] |= 1 << uint(i)
			}
		}
	}
	return u
}

// treeBytes returns the tree's footprint for cache accounting.
func (u *UpDown) treeBytes() int64 {
	return int64(len(u.upMask)) + int64(len(u.level))*8 + int64(len(u.parent))*8 + int64(len(u.root))*8
}

// medianElection runs RootMedian's elections over one snapshot: the
// all-pairs kernel (table.go) forward, its scratch shared by every
// component.
type medianElection struct {
	g     *topology.FlatGraph
	pred  []int32
	s     *bfsScratch
	roots []int32
	rows  [][]int16 // one candidate's distances per row
}

func newMedianElection(g *topology.FlatGraph) *medianElection {
	e := &medianElection{g: g, pred: predecessors(g, nil), s: newBFSScratch(g.N, false)}
	n := g.N
	buf := make([]int16, min(batchRoots, n)*n)
	for i := 0; i < len(buf); i += n {
		e.rows = append(e.rows, buf[i:i+n:i+n])
	}
	return e
}

// chooseRoot picks the 1-median of comp: the member whose directed-hop
// distances to the other members sum least, a member it cannot reach
// (unidirectional faults) costing n², lowest id on ties. Candidates go
// through forward kernel passes, 64 at a time.
func (e *medianElection) chooseRoot(comp []geom.NodeID) geom.NodeID {
	n := e.g.N
	best, bestSum := comp[0], -1
	for lo := 0; lo < len(comp); lo += batchRoots {
		batch := comp[lo:min(lo+batchRoots, len(comp))]
		e.roots = e.roots[:0]
		for _, c := range batch {
			e.roots = append(e.roots, int32(c))
		}
		rows := e.rows[:len(batch)]
		e.s.pass(e.g.Next, e.pred, e.g.Alive, e.roots, rows)
		for i, cand := range batch {
			sum := 0
			for _, m := range comp {
				if d := rows[i][m]; d >= 0 {
					sum += int(d)
				} else {
					sum += n * n
				}
			}
			if bestSum < 0 || sum < bestSum || (sum == bestSum && cand < best) {
				best, bestSum = cand, sum
			}
		}
	}
	return best
}

func (u *UpDown) buildTree(root geom.NodeID) {
	u.level[root] = 0
	u.root[root] = root
	// Index cursor, not queue = queue[1:]: re-slicing would pin the
	// whole backing array for the life of the UpDown (the NIRing/BFS
	// retention bug class fixed across the repo).
	queue := []geom.NodeID{root}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, d := range geom.LinkDirs {
			if !u.topo.HasLink(cur, d) {
				continue
			}
			nb := u.topo.Neighbor(cur, d)
			if u.level[nb] < 0 {
				u.level[nb] = u.level[cur] + 1
				u.parent[nb] = cur
				u.root[nb] = root
				queue = append(queue, nb)
			}
		}
	}
	// Members not reached (possible only with unidirectional faults
	// inside an undirected component) stay level -1 and are treated as
	// unroutable by this scheme.
}

// Level returns the BFS-tree level of n, or -1 if n is dead or unrouted.
func (u *UpDown) Level(n geom.NodeID) int { return u.level[n] }

// Parent returns the spanning-tree parent of n (InvalidNode at a root).
func (u *UpDown) Parent(n geom.NodeID) geom.NodeID { return u.parent[n] }

// Root returns the component root of n.
func (u *UpDown) Root(n geom.NodeID) geom.NodeID { return u.root[n] }

// isUpLive computes the up-channel classification from the live
// topology; used once at construction to fill upMask.
func (u *UpDown) isUpLive(n geom.NodeID, d geom.Direction) bool {
	if !u.topo.HasLink(n, d) {
		return false
	}
	nb := u.topo.Neighbor(n, d)
	if u.level[n] < 0 || u.level[nb] < 0 {
		return false
	}
	if u.level[nb] != u.level[n] {
		return u.level[nb] < u.level[n]
	}
	return nb < n
}

// IsUp reports whether the directed channel from n in direction d is an
// "up" channel (toward the root ordering). Channels between different
// components or involving dead nodes report false.
func (u *UpDown) IsUp(n geom.NodeID, d geom.Direction) bool {
	if !d.IsLink() {
		return false
	}
	// Link directions are 0..3, so the direction doubles as the bit index.
	return u.upMask[n]&(1<<uint(d)) != 0
}

// TurnLegal reports whether a packet that entered node n via heading
// `in` (i.e. over channel prev→n) may leave via direction `out` under the
// up*/down* rule: the down→up turn is forbidden, as are U-turns.
func (u *UpDown) TurnLegal(n geom.NodeID, in, out geom.Direction) bool {
	if out == in.Opposite() {
		return false
	}
	prev := u.topo.Neighbor(n, in.Opposite())
	if prev == geom.InvalidNode {
		return false
	}
	cameDown := !u.IsUp(prev, in) // channel prev→n was a down channel
	goesUp := u.IsUp(n, out)
	return !(cameDown && goesUp)
}

// TreeNextHop returns the next-hop direction from n toward dst using pure
// spanning-tree routing (up to the lowest common ancestor, then down).
// This is the per-router escape-path table of the escape-VC baseline
// (Router Parking style). It returns Local when n == dst and Invalid when
// dst is in a different component or either node is dead.
func (u *UpDown) TreeNextHop(n, dst geom.NodeID) geom.Direction {
	if u.level[n] < 0 || u.level[dst] < 0 || u.root[n] != u.root[dst] {
		return geom.Invalid
	}
	if n == dst {
		return geom.Local
	}
	// Walk dst's ancestor chain up to n's level; if it passes through n,
	// descend toward dst, else go to parent.
	walk := dst
	var below geom.NodeID = geom.InvalidNode
	for u.level[walk] > u.level[n] {
		below = walk
		walk = u.parent[walk]
	}
	var next geom.NodeID
	if walk == n {
		next = below // dst is in n's subtree
	} else {
		next = u.parent[n]
	}
	return geom.DirectionBetween(u.topo.Coord(n), u.topo.Coord(next))
}

// DependencyAcyclic verifies that the channel-dependency graph induced by
// legal up*/down* turns contains no cycle — the theoretical guarantee the
// spanning-tree baseline rests on. Exposed for property tests.
func (u *UpDown) DependencyAcyclic() bool {
	// Vertices: directed channels (n, d). Edge (a→b, b→c) iff TurnLegal.
	type ch struct {
		n geom.NodeID
		d geom.Direction
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[ch]int8)
	var dfs func(c ch) bool
	dfs = func(c ch) bool {
		color[c] = gray
		mid := u.topo.Neighbor(c.n, c.d)
		for _, out := range geom.LinkDirs {
			if !u.topo.HasLink(mid, out) || !u.TurnLegal(mid, c.d, out) {
				continue
			}
			next := ch{mid, out}
			switch color[next] {
			case gray:
				return true
			case white:
				if dfs(next) {
					return true
				}
			}
		}
		color[c] = black
		return false
	}
	for id := 0; id < u.topo.NumNodes(); id++ {
		n := geom.NodeID(id)
		for _, d := range geom.LinkDirs {
			if !u.topo.HasLink(n, d) {
				continue
			}
			c := ch{n, d}
			if color[c] == white && dfs(c) {
				return false
			}
		}
	}
	return true
}

// TreeRoute returns the pure spanning-tree path from src to dst (up to
// the lowest common ancestor, then down), or ok=false across components.
func (u *UpDown) TreeRoute(src, dst geom.NodeID) (Route, bool) {
	return u.AppendTreeRoute(nil, src, dst)
}

// AppendTreeRoute is TreeRoute with the hops appended onto buf.
func (u *UpDown) AppendTreeRoute(buf Route, src, dst geom.NodeID) (Route, bool) {
	if u.level[src] < 0 || u.level[dst] < 0 || u.root[src] != u.root[dst] {
		return buf, false
	}
	route := buf
	cur := src
	for cur != dst {
		d := u.TreeNextHop(cur, dst)
		if !d.IsLink() {
			return buf, false
		}
		route = append(route, d)
		cur = u.topo.Neighbor(cur, d)
	}
	return route, true
}

// TreeAlgorithm adapts the spanning tree to the Algorithm interface:
// every packet follows the tree path through the lowest common ancestor.
// This is the conservative tree-routing baseline the paper's introduction
// describes ("messages are routed via the root").
func (u *UpDown) TreeAlgorithm() Algorithm { return treeAlg{u} }

type treeAlg struct{ u *UpDown }

func (t treeAlg) Name() string { return "spanning_tree" }

func (t treeAlg) Route(src, dst geom.NodeID, _ *rand.Rand) (Route, bool) {
	return t.u.TreeRoute(src, dst)
}

func (t treeAlg) AppendRoute(buf Route, src, dst geom.NodeID, _ *rand.Rand) (Route, bool) {
	return t.u.AppendTreeRoute(buf, src, dst)
}

// TableEntries is the size of an up*/down* routing table over the tree's
// nodes — per destination column, two state distances (one per phase)
// and a candidate byte per node, 3n² in all: the churn experiment's
// whole-table install charge for the tree baselines, as arithmetic.
func (u *UpDown) TableEntries() int64 {
	n := int64(len(u.level))
	return 3 * n * n
}

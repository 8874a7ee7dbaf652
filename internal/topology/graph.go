package topology

import (
	"slices"

	"repro/internal/geom"
)

// ConnectedComponents returns the alive routers grouped into undirected
// connected components (a link counts if usable in either direction),
// each sorted ascending, components ordered by their smallest member.
func (t *Topology) ConnectedComponents() [][]geom.NodeID {
	seen := make([]bool, t.NumNodes())
	var comps [][]geom.NodeID
	for id := 0; id < t.NumNodes(); id++ {
		n := geom.NodeID(id)
		if seen[id] || !t.RouterAlive(n) {
			continue
		}
		comp := []geom.NodeID{n}
		seen[id] = true
		for i := 0; i < len(comp); i++ {
			cur := comp[i]
			for _, d := range geom.LinkDirs {
				if !t.HasUndirectedLink(cur, d) {
					continue
				}
				nb := t.Neighbor(cur, d)
				if nb != geom.InvalidNode && t.RouterAlive(nb) && !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// LargestComponent returns the connected component with the most routers
// (ties broken by smallest member id), or nil if no routers are alive.
func (t *Topology) LargestComponent() []geom.NodeID {
	var best []geom.NodeID
	for _, c := range t.ConnectedComponents() {
		if len(c) > len(best) {
			best = c
		}
	}
	return best
}

// Connected reports whether a usable path (following directed channels)
// exists from a to b.
func (t *Topology) Connected(a, b geom.NodeID) bool {
	if !t.RouterAlive(a) || !t.RouterAlive(b) {
		return false
	}
	d := t.BFSDistances(a)
	return d[b] >= 0
}

// BFSDistances returns directed-hop distances from src to every node;
// unreachable or dead nodes get -1.
func (t *Topology) BFSDistances(src geom.NodeID) []int {
	dist := make([]int, t.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	if !t.RouterAlive(src) {
		return dist
	}
	dist[src] = 0
	// Index cursor, not queue = queue[1:]: re-slicing would pin the whole
	// backing array alive for the life of the (cached) result.
	queue := []geom.NodeID{src}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, d := range geom.LinkDirs {
			if !t.HasLink(cur, d) {
				continue
			}
			nb := t.Neighbor(cur, d)
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// ReverseBFSDistances returns, for every node n, the directed-hop distance
// from n to dst (following channel directions), or -1 if unreachable.
func (t *Topology) ReverseBFSDistances(dst geom.NodeID) []int {
	dist := make([]int, t.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	if !t.RouterAlive(dst) {
		return dist
	}
	dist[dst] = 0
	queue := []geom.NodeID{dst}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		// Predecessors of cur: nodes nb with a usable channel nb→cur.
		for _, d := range geom.LinkDirs {
			nb := t.Neighbor(cur, d)
			if nb == geom.InvalidNode || !t.HasLink(nb, d.Opposite()) {
				continue
			}
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// HasTopologyCycle reports whether the undirected alive graph contains a
// cycle. This is the paper's Fig. 2 "deadlock-prone" criterion: a topology
// with no cycle cannot form a cyclic buffer dependency, while one with a
// cycle can (minimal adaptive routing will eventually exercise it).
//
// An undirected graph has a cycle iff edges > nodes − components.
func (t *Topology) HasTopologyCycle() bool {
	nodes := t.AliveRouterCount()
	edges := t.AliveLinkCount()
	comps := len(t.ConnectedComponents())
	return edges > nodes-comps
}

// channelState is a node entered with a given heading; the vertices of the
// no-U-turn channel-dependency reachability graph.
type channelState struct {
	node    geom.NodeID
	heading geom.Direction
}

// HasNoUTurnCycleExcluding reports whether the directed channel graph
// contains a cycle that (a) never takes a 180° turn and (b) avoids every
// node for which exclude returns true. With a nil exclude it reports
// whether any potential cyclic buffer-dependency chain exists at all.
//
// This is the structure quantified by the static-bubble coverage lemma:
// placement is correct iff no such cycle survives when the SB routers are
// excluded.
func (t *Topology) HasNoUTurnCycleExcluding(exclude func(geom.NodeID) bool) bool {
	const (
		white = 0 // unvisited
		gray  = 1 // on DFS stack
		black = 2 // done
	)
	color := make(map[channelState]int8)

	allowed := func(n geom.NodeID) bool {
		return t.RouterAlive(n) && (exclude == nil || !exclude(n))
	}

	// Iterative DFS over (node, heading) states. A gray-state revisit is a
	// directed cycle; since transitions forbid heading reversal, the cycle
	// is a no-U-turn closed walk in the topology.
	type frame struct {
		st      channelState
		nextDir int
	}
	var stack []frame

	visit := func(start channelState) bool {
		if color[start] != white {
			return false
		}
		stack = stack[:0]
		color[start] = gray
		stack = append(stack, frame{start, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.nextDir < geom.NumLinkDirs {
				d := geom.LinkDirs[f.nextDir]
				f.nextDir++
				if d == f.st.heading.Opposite() {
					continue // no U-turns
				}
				if !t.HasLink(f.st.node, d) {
					continue
				}
				nb := t.Neighbor(f.st.node, d)
				if !allowed(nb) {
					continue
				}
				next := channelState{nb, d}
				switch color[next] {
				case gray:
					return true
				case white:
					color[next] = gray
					stack = append(stack, frame{next, 0})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[f.st] = black
				stack = stack[:len(stack)-1]
			}
		}
		return false
	}

	for id := 0; id < t.NumNodes(); id++ {
		n := geom.NodeID(id)
		if !allowed(n) {
			continue
		}
		for _, d := range geom.LinkDirs {
			// A state (n, d) is enterable if some allowed predecessor has a
			// channel into n with heading d.
			pred := t.Neighbor(n, d.Opposite())
			if pred == geom.InvalidNode || !allowed(pred) || !t.HasLink(pred, d) {
				continue
			}
			if visit(channelState{n, d}) {
				return true
			}
		}
	}
	return false
}

// HasNoUTurnCycle reports whether any no-U-turn directed cycle exists in
// the alive channel graph.
func (t *Topology) HasNoUTurnCycle() bool {
	return t.HasNoUTurnCycleExcluding(nil)
}

// FindNoUTurnCycle returns one no-U-turn directed cycle avoiding excluded
// nodes, as the sequence of nodes visited (first node repeated at the
// end), or nil if none exists. Used by tests to produce counterexamples.
func (t *Topology) FindNoUTurnCycle(exclude func(geom.NodeID) bool) []geom.NodeID {
	allowed := func(n geom.NodeID) bool {
		return t.RouterAlive(n) && (exclude == nil || !exclude(n))
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channelState]int8)
	var path []channelState

	var dfs func(st channelState) []geom.NodeID
	dfs = func(st channelState) []geom.NodeID {
		color[st] = gray
		path = append(path, st)
		for _, d := range geom.LinkDirs {
			if d == st.heading.Opposite() || !t.HasLink(st.node, d) {
				continue
			}
			nb := t.Neighbor(st.node, d)
			if !allowed(nb) {
				continue
			}
			next := channelState{nb, d}
			switch color[next] {
			case gray:
				// Extract cycle from path.
				var cyc []geom.NodeID
				start := -1
				for i, p := range path {
					if p == next {
						start = i
						break
					}
				}
				for _, p := range path[start:] {
					cyc = append(cyc, p.node)
				}
				cyc = append(cyc, next.node)
				return cyc
			case white:
				if cyc := dfs(next); cyc != nil {
					return cyc
				}
			}
		}
		color[st] = black
		path = path[:len(path)-1]
		return nil
	}

	for id := 0; id < t.NumNodes(); id++ {
		n := geom.NodeID(id)
		if !allowed(n) {
			continue
		}
		for _, d := range geom.LinkDirs {
			pred := t.Neighbor(n, d.Opposite())
			if pred == geom.InvalidNode || !allowed(pred) || !t.HasLink(pred, d) {
				continue
			}
			st := channelState{n, d}
			if color[st] == white {
				path = path[:0]
				if cyc := dfs(st); cyc != nil {
					return cyc
				}
			}
		}
	}
	return nil
}

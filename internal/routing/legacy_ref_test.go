package routing

// Executable references for the compiled tables. The pre-compilation
// minimal router was one lazy reverse BFS per destination and a
// candidate walk over the live topology; both live on as the one-shot
// path (topology.ReverseBFSDistances, AppendRouteOneShot), so the
// minimal check routes through that. The lazy-map up*/down* router is
// kept verbatim: it is the only oracle that UpDownTable's cold compile
// is shortest-legal. The spanning-tree construction itself did not
// change, so the up*/down* reference borrows the compiled instance's
// tree (Level/IsUp) and reimplements only the routing that was
// rewritten. With identical seeded rng streams both must agree with the
// compiled tables on every distance, every reachability verdict and
// every sampled route.

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

// legacyUpDown is the old lazy state-graph up*/down* router over an
// UpDown tree.
type legacyUpDown struct {
	topo   *topology.Topology
	u      *UpDown
	distTo map[geom.NodeID][]int
}

func newLegacyUpDown(t *topology.Topology, u *UpDown) *legacyUpDown {
	return &legacyUpDown{topo: t, u: u, distTo: make(map[geom.NodeID][]int)}
}

func (l *legacyUpDown) dist(dst geom.NodeID) []int {
	if d, ok := l.distTo[dst]; ok {
		return d
	}
	n := l.topo.NumNodes()
	dist := make([]int, 2*n)
	for i := range dist {
		dist[i] = -1
	}
	if l.u.Level(dst) >= 0 {
		type state struct {
			node  geom.NodeID
			phase int
		}
		dist[2*int(dst)+phaseUp] = 0
		dist[2*int(dst)+phaseDown] = 0
		queue := []state{{dst, phaseUp}, {dst, phaseDown}}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			sd := dist[2*int(s.node)+s.phase]
			for _, d := range geom.LinkDirs {
				v := l.topo.Neighbor(s.node, d)
				if v == geom.InvalidNode || !l.topo.HasLink(v, d.Opposite()) {
					continue
				}
				if l.u.Level(v) < 0 {
					continue
				}
				chanUp := l.u.IsUp(v, d.Opposite())
				var preds []int
				if chanUp {
					if s.phase == phaseUp {
						preds = []int{phaseUp}
					}
				} else {
					if s.phase == phaseDown {
						preds = []int{phaseUp, phaseDown}
					}
				}
				for _, pv := range preds {
					idx := 2*int(v) + pv
					if dist[idx] < 0 {
						dist[idx] = sd + 1
						queue = append(queue, state{v, pv})
					}
				}
			}
		}
	}
	l.distTo[dst] = dist
	return dist
}

func (l *legacyUpDown) Distance(src, dst geom.NodeID) int {
	if l.u.Level(src) < 0 || l.u.Level(dst) < 0 {
		return -1
	}
	return l.dist(dst)[2*int(src)+phaseUp]
}

func (l *legacyUpDown) AppendRoute(buf Route, src, dst geom.NodeID, rng *rand.Rand) (Route, bool) {
	if src == dst {
		return buf, l.u.Level(src) >= 0
	}
	dist := l.dist(dst)
	if l.u.Level(src) < 0 || dist[2*int(src)+phaseUp] < 0 {
		return buf, false
	}
	route := buf
	cur, phase := src, phaseUp
	for cur != dst {
		curD := dist[2*int(cur)+phase]
		var dirs [geom.NumLinkDirs]geom.Direction
		var phases [geom.NumLinkDirs]int
		n := 0
		for _, d := range geom.LinkDirs {
			if !l.topo.HasLink(cur, d) {
				continue
			}
			nb := l.topo.Neighbor(cur, d)
			chanUp := l.u.IsUp(cur, d)
			if chanUp && phase != phaseUp {
				continue
			}
			nextPhase := phaseDown
			if chanUp {
				nextPhase = phaseUp
			}
			if dist[2*int(nb)+nextPhase] == curD-1 {
				dirs[n], phases[n] = d, nextPhase
				n++
			}
		}
		if n == 0 {
			return buf, false
		}
		pick := 0
		if rng != nil && n > 1 {
			pick = rng.Intn(n)
		}
		route = append(route, dirs[pick])
		cur = l.topo.Neighbor(cur, dirs[pick])
		phase = phases[pick]
	}
	return route, true
}

// equivalenceTopologies samples the topology shapes the equivalence
// tests sweep: a healthy mesh, link-faulted and router-faulted
// irregulars, and a heavily broken one with disconnected components.
func equivalenceTopologies() map[string]*topology.Topology {
	return map[string]*topology.Topology{
		"mesh6x6":         topology.NewMesh(6, 6),
		"links8x8f18":     topology.RandomIrregular(8, 8, topology.LinkFaults, 18, 42),
		"routers8x8f10":   topology.RandomIrregular(8, 8, topology.RouterFaults, 10, 7),
		"shattered6x6f30": topology.RandomIrregular(6, 6, topology.LinkFaults, 30, 3),
		"links10x10f30f2": topology.RandomIrregular(10, 10, topology.LinkFaults, 30, 2),
	}
}

// TestMinimalMatchesLegacy checks the compiled minimal router against
// the lazy one-shot path on every (src, dst) pair: distances and
// reachability against ReverseBFSDistances, and routes against
// AppendRouteOneShot with identical rng streams — the property
// reconfig's pending-gate detours rely on — and with a nil rng.
func TestMinimalMatchesLegacy(t *testing.T) {
	for name, topo := range equivalenceTopologies() {
		t.Run(name, func(t *testing.T) {
			compiled := NewMinimal(topo)
			n := topo.NumNodes()
			rngC := rand.New(rand.NewSource(1234))
			rngL := rand.New(rand.NewSource(1234))
			for d := 0; d < n; d++ {
				dst := geom.NodeID(d)
				dist := topo.ReverseBFSDistances(dst)
				for s := 0; s < n; s++ {
					src := geom.NodeID(s)
					want := dist[src]
					if !topo.RouterAlive(src) {
						want = -1
					}
					if got := compiled.Distance(src, dst); got != want {
						t.Fatalf("Distance(%v,%v): compiled %d, reverse BFS %d", src, dst, got, want)
					}
					if got := compiled.Reachable(src, dst); got != (want >= 0) {
						t.Fatalf("Reachable(%v,%v): compiled %v, reverse BFS distance %d", src, dst, got, want)
					}
					rc, okc := compiled.AppendRoute(nil, src, dst, rngC)
					rl, okl := AppendRouteOneShot(topo, nil, src, dst, rngL)
					if okc != okl || !routesEqual(rc, rl) {
						t.Fatalf("Route(%v,%v): compiled %v/%v, one-shot %v/%v", src, dst, rc, okc, rl, okl)
					}
					rc, _ = compiled.AppendRoute(nil, src, dst, nil)
					rl, _ = AppendRouteOneShot(topo, nil, src, dst, nil)
					if !routesEqual(rc, rl) {
						t.Fatalf("nil-rng Route(%v,%v): compiled %v, one-shot %v", src, dst, rc, rl)
					}
				}
			}
		})
	}
}

// TestUpDownMatchesLegacy is the up*/down* counterpart, for both root
// policies; it additionally checks every compiled route is legal (never
// an up channel after a down channel) and exactly Distance hops long.
func TestUpDownMatchesLegacy(t *testing.T) {
	for name, topo := range equivalenceTopologies() {
		for _, policy := range []RootPolicy{RootMedian, RootLowestID} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				compiled := NewUpDownRooted(topo, policy).Compile()
				legacy := newLegacyUpDown(topo, compiled.UpDown)
				n := topo.NumNodes()
				rngC := rand.New(rand.NewSource(99))
				rngL := rand.New(rand.NewSource(99))
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						src, dst := geom.NodeID(s), geom.NodeID(d)
						if got, want := compiled.Distance(src, dst), legacy.Distance(src, dst); got != want {
							t.Fatalf("Distance(%v,%v): compiled %d, legacy %d", src, dst, got, want)
						}
						rc, okc := compiled.AppendRoute(nil, src, dst, rngC)
						rl, okl := legacy.AppendRoute(nil, src, dst, rngL)
						if okc != okl {
							t.Fatalf("Route(%v,%v): compiled ok=%v, legacy ok=%v", src, dst, okc, okl)
						}
						if !routesEqual(rc, rl) {
							t.Fatalf("Route(%v,%v): compiled %v, legacy %v", src, dst, rc, rl)
						}
						if okc && src != dst {
							if got, want := len(rc), compiled.Distance(src, dst); got != want {
								t.Fatalf("Route(%v,%v): %d hops, Distance %d", src, dst, got, want)
							}
							checkUpDownLegalRef(t, topo, compiled.UpDown, src, rc)
						}
					}
				}
			})
		}
	}
}

// checkUpDownLegal walks route r from src verifying every hop uses a
// usable channel and no up channel follows a down channel.
func checkUpDownLegalRef(t *testing.T, topo *topology.Topology, u *UpDown, src geom.NodeID, r Route) {
	t.Helper()
	cur, wentDown := src, false
	for i, d := range r {
		if !topo.HasLink(cur, d) {
			t.Fatalf("route hop %d from %v: dead channel %v at %v", i, src, d, cur)
		}
		up := u.IsUp(cur, d)
		if wentDown && up {
			t.Fatalf("route hop %d from %v: up channel %v at %v after a down hop", i, src, d, cur)
		}
		if !up {
			wentDown = true
		}
		cur = topo.Neighbor(cur, d)
	}
}

func routesEqual(a, b Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOneShotMatchesCompiled checks AppendRouteOneShot draws the exact
// same routes as a compiled Minimal given identical rng streams — the
// property reconfig's pending-gate detour path relies on.
func TestOneShotMatchesCompiled(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 18, 42)
	compiled := NewMinimal(topo)
	n := topo.NumNodes()
	rngC := rand.New(rand.NewSource(5))
	rngO := rand.New(rand.NewSource(5))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := geom.NodeID(s), geom.NodeID(d)
			rc, okc := compiled.AppendRoute(nil, src, dst, rngC)
			ro, oko := AppendRouteOneShot(topo, nil, src, dst, rngO)
			if okc != oko || !routesEqual(rc, ro) {
				t.Fatalf("(%v,%v): compiled %v/%v, one-shot %v/%v", src, dst, rc, okc, ro, oko)
			}
		}
	}
}

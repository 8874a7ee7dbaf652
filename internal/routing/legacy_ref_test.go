package routing

// Executable references for the routers. The pre-compilation minimal
// router was one lazy reverse BFS per destination and a candidate walk
// over the live topology; both live on as the one-shot path
// (topology.ReverseBFSDistances, AppendRouteOneShot), so the minimal
// check routes through that, with identical seeded rng streams, on every
// distance, every reachability verdict and every sampled route. The
// tree reference reads the path straight off the parent pointers: climb
// from both ends to the lowest common ancestor, up the source's chain,
// down the destination's.

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

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

// refTreeRoute is the tree path from src to dst read off the parent
// pointers, or ok=false when the two are not in one routed component.
func refTreeRoute(topo *topology.Topology, u *UpDown, src, dst geom.NodeID) (Route, bool) {
	if u.Level(src) < 0 || u.Level(dst) < 0 || u.Root(src) != u.Root(dst) {
		return nil, false
	}
	// The chains climbed from each end; both end at the LCA.
	up, down := []geom.NodeID{src}, []geom.NodeID{dst}
	for a, b := src, dst; a != b; {
		if u.Level(a) >= u.Level(b) {
			a = u.Parent(a)
			up = append(up, a)
		} else {
			b = u.Parent(b)
			down = append(down, b)
		}
	}
	var r Route
	hop := func(x, y geom.NodeID) { r = append(r, geom.DirectionBetween(topo.Coord(x), topo.Coord(y))) }
	for i := 1; i < len(up); i++ {
		hop(up[i-1], up[i])
	}
	for i := len(down) - 1; i > 0; i-- {
		hop(down[i], down[i-1])
	}
	return r, true
}

// TestUpDownMatchesLegacy checks the tree router against refTreeRoute on
// every (src, dst) pair, for both root policies: the same verdict and the
// same hops, and every route legal (never an up channel after a down
// channel).
func TestUpDownMatchesLegacy(t *testing.T) {
	for name, topo := range equivalenceTopologies() {
		for _, policy := range []RootPolicy{RootMedian, RootLowestID} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				u := NewUpDownRooted(topo, policy)
				n := topo.NumNodes()
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						src, dst := geom.NodeID(s), geom.NodeID(d)
						got, ok := u.TreeRoute(src, dst)
						want, wantOK := refTreeRoute(topo, u, src, dst)
						if ok != wantOK || !routesEqual(got, want) {
							t.Fatalf("TreeRoute(%v,%v): %v/%v, reference %v/%v", src, dst, got, ok, want, wantOK)
						}
						if !ok {
							continue
						}
						if err := got.Validate(topo, src, dst); err != nil {
							t.Fatal(err)
						}
						if err := checkUpDownLegal(u, topo, src, got); err != nil {
							t.Fatalf("TreeRoute(%v,%v) = %v: %v", src, dst, got, err)
						}
					}
				}
			})
		}
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

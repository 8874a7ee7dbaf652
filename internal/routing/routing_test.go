package routing

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

func TestMinimalOnHealthyMeshMatchesManhattan(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	m := NewMinimal(topo)
	rng := rand.New(rand.NewSource(1))
	for src := geom.NodeID(0); src < 64; src += 7 {
		for dst := geom.NodeID(0); dst < 64; dst += 5 {
			r, ok := m.Route(src, dst, rng)
			if !ok {
				t.Fatalf("route %v→%v not found", src, dst)
			}
			want := geom.ManhattanDistance(topo.Coord(src), topo.Coord(dst))
			if r.Len() != want {
				t.Fatalf("route %v→%v has %d hops, want %d", src, dst, r.Len(), want)
			}
			if err := r.Validate(topo, src, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestMinimalSelfRoute(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	m := NewMinimal(topo)
	r, ok := m.Route(3, 3, nil)
	if !ok || r.Len() != 0 {
		t.Fatalf("self route = %v ok=%v, want empty ok", r, ok)
	}
}

func TestMinimalOnIrregularIsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 20, int64(trial))
		m := NewMinimal(topo)
		for n := 0; n < 20; n++ {
			src := geom.NodeID(rng.Intn(64))
			dst := geom.NodeID(rng.Intn(64))
			if !topo.RouterAlive(src) || !topo.RouterAlive(dst) {
				continue
			}
			r, ok := m.Route(src, dst, rng)
			dist := m.Distance(src, dst)
			if !ok {
				if dist >= 0 {
					t.Fatalf("route %v→%v missing but distance %d", src, dst, dist)
				}
				continue
			}
			if r.Len() != dist {
				t.Fatalf("route %v→%v len %d != BFS dist %d", src, dst, r.Len(), dist)
			}
			if err := r.Validate(topo, src, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestMinimalUnreachable(t *testing.T) {
	topo := topology.NewMesh(4, 1)
	topo.DisableLink(1, geom.East)
	m := NewMinimal(topo)
	if _, ok := m.Route(0, 3, nil); ok {
		t.Fatal("route across a cut should not exist")
	}
	if m.Reachable(0, 3) {
		t.Fatal("Reachable should be false across a cut")
	}
	if !m.Reachable(0, 1) {
		t.Fatal("Reachable should be true within a component")
	}
	if m.Distance(0, 3) != -1 {
		t.Fatal("Distance across cut should be -1")
	}
}

func TestMinimalDeadEndpoints(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	topo.DisableRouter(4)
	m := NewMinimal(topo)
	if _, ok := m.Route(4, 0, nil); ok {
		t.Fatal("route from dead router should fail")
	}
	if _, ok := m.Route(0, 4, nil); ok {
		t.Fatal("route to dead router should fail")
	}
	if _, ok := m.Route(4, 4, nil); ok {
		t.Fatal("self route at dead router should fail")
	}
}

func TestMinimalRandomizationCoversDAG(t *testing.T) {
	// On a healthy mesh between opposite corners many minimal routes
	// exist; sampling should produce more than one distinct first hop.
	topo := topology.NewMesh(5, 5)
	m := NewMinimal(topo)
	rng := rand.New(rand.NewSource(2))
	first := map[geom.Direction]bool{}
	for i := 0; i < 64; i++ {
		r, ok := m.Route(0, 24, rng)
		if !ok {
			t.Fatal("route must exist")
		}
		first[r[0]] = true
	}
	if len(first) < 2 {
		t.Fatalf("minimal routing never diversified first hop: %v", first)
	}
}

func TestXYHealthyMesh(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	x := NewXY(topo)
	src, dst := topo.ID(geom.Coord{X: 1, Y: 1}), topo.ID(geom.Coord{X: 4, Y: 3})
	r, ok := x.Route(src, dst, nil)
	if !ok {
		t.Fatal("XY route must exist on healthy mesh")
	}
	if err := r.Validate(topo, src, dst); err != nil {
		t.Fatal(err)
	}
	// X first: route must be E,E,E,N,N.
	want := Route{geom.East, geom.East, geom.East, geom.North, geom.North}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("XY route = %v, want %v", r, want)
		}
	}
}

func TestXYFailsOnFault(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	topo.DisableLink(0, geom.East)
	x := NewXY(topo)
	if _, ok := x.Route(0, 3, nil); ok {
		t.Fatal("XY should fail across a dead X link")
	}
}

func TestXYNameAndMinimalName(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	if NewXY(topo).Name() != "xy" || NewMinimal(topo).Name() != "minimal" {
		t.Fatal("unexpected algorithm names")
	}
}

// checkUpDownLegal reports an up channel taken after a down channel on
// route r from src.
func checkUpDownLegal(u *UpDown, topo *topology.Topology, src geom.NodeID, r Route) error {
	cur := src
	down := false
	for i, d := range r {
		up := u.IsUp(cur, d)
		if up && down {
			return errUpAfterDown(i)
		}
		if !up {
			down = true
		}
		cur = topo.Neighbor(cur, d)
	}
	return nil
}

type errUpAfterDown int

func (e errUpAfterDown) Error() string { return "up channel after down channel" }

// TestUpDownIrregularConnectivityAndLegality: on faulted irregular
// topologies the tree routes exactly the reachable pairs, over usable
// channels, never up after down, and never shorter than a shortest path.
func TestUpDownIrregularConnectivityAndLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 25, int64(100+trial))
		u := NewUpDown(topo)
		m := NewMinimal(topo)
		for n := 0; n < 30; n++ {
			src := geom.NodeID(rng.Intn(64))
			dst := geom.NodeID(rng.Intn(64))
			if !topo.RouterAlive(src) || !topo.RouterAlive(dst) {
				continue
			}
			reach := m.Reachable(src, dst)
			r, ok := u.TreeRoute(src, dst)
			if ok != reach {
				t.Fatalf("trial %d: tree routable(%v→%v)=%v but reachable=%v",
					trial, src, dst, ok, reach)
			}
			if !ok {
				continue
			}
			if err := r.Validate(topo, src, dst); err != nil {
				t.Fatal(err)
			}
			if err := checkUpDownLegal(u, topo, src, r); err != nil {
				t.Fatalf("trial %d %v→%v: %v (route %v)", trial, src, dst, err, r)
			}
			if r.Len() < m.Distance(src, dst) {
				t.Fatalf("tree route shorter than shortest path?!")
			}
		}
	}
}

func TestUpDownDependencyAcyclicProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		kind := topology.LinkFaults
		k := trial
		if trial%2 == 1 {
			kind = topology.RouterFaults
			k = trial / 2
		}
		topo := topology.RandomIrregular(8, 8, kind, k, int64(500+trial))
		u := NewUpDown(topo)
		if !u.DependencyAcyclic() {
			t.Fatalf("trial %d (%v=%d): up/down dependency graph has a cycle", trial, kind, k)
		}
	}
}

func TestUpDownTreeNextHopWalksToDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		topo := topology.RandomIrregular(8, 8, topology.RouterFaults, 8, int64(trial))
		u := NewUpDown(topo)
		m := NewMinimal(topo)
		for n := 0; n < 25; n++ {
			src := geom.NodeID(rng.Intn(64))
			dst := geom.NodeID(rng.Intn(64))
			if !topo.RouterAlive(src) || !topo.RouterAlive(dst) || !m.Reachable(src, dst) {
				continue
			}
			cur := src
			steps := 0
			for cur != dst {
				d := u.TreeNextHop(cur, dst)
				if d == geom.Invalid || d == geom.Local {
					t.Fatalf("trial %d: TreeNextHop(%v,%v) = %v mid-walk", trial, cur, dst, d)
				}
				if !topo.HasLink(cur, d) {
					t.Fatalf("trial %d: tree hop uses dead channel", trial)
				}
				cur = topo.Neighbor(cur, d)
				steps++
				if steps > 200 {
					t.Fatalf("trial %d: tree walk %v→%v did not terminate", trial, src, dst)
				}
			}
			if got := u.TreeNextHop(dst, dst); got != geom.Local {
				t.Fatalf("TreeNextHop at destination = %v, want Local", got)
			}
		}
	}
}

func TestUpDownTreeNextHopAcrossComponents(t *testing.T) {
	topo := topology.NewMesh(4, 1)
	topo.DisableLink(1, geom.East)
	u := NewUpDown(topo)
	if got := u.TreeNextHop(0, 3); got != geom.Invalid {
		t.Fatalf("cross-component TreeNextHop = %v, want Invalid", got)
	}
}

func TestUpDownTreeUsesOnlyTreeEdges(t *testing.T) {
	// Tree next hops must follow parent/child relations exclusively.
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 15, 77)
	u := NewUpDown(topo)
	for n := geom.NodeID(0); n < 64; n++ {
		for dst := geom.NodeID(0); dst < 64; dst += 9 {
			d := u.TreeNextHop(n, dst)
			if d == geom.Invalid || d == geom.Local {
				continue
			}
			next := topo.Neighbor(n, d)
			if u.Parent(n) != next && u.Parent(next) != n {
				t.Fatalf("TreeNextHop(%v,%v)=%v reaches %v which is not a tree neighbor", n, dst, d, next)
			}
		}
	}
}

func TestUpDownRootIsMedianish(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	u := NewUpDown(topo)
	// The 1-median of a healthy odd mesh is its center.
	center := topo.ID(geom.Coord{X: 2, Y: 2})
	if u.Root(0) != center {
		t.Fatalf("root = %v, want center %v", u.Root(0), center)
	}
	if u.Level(center) != 0 || u.Parent(center) != geom.InvalidNode {
		t.Fatal("root must be level 0 with no parent")
	}
}

func TestRouteValidateCatchesBadRoutes(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	if err := (Route{geom.East, geom.West}).Validate(topo, 0, 0); err == nil {
		t.Error("U-turn route should fail validation")
	}
	if err := (Route{geom.North}).Validate(topo, 0, 2); err == nil {
		t.Error("wrong destination should fail validation")
	}
	if err := (Route{geom.Local}).Validate(topo, 0, 0); err == nil {
		t.Error("Local hop should fail validation")
	}
	topo.DisableLink(0, geom.East)
	if err := (Route{geom.East}).Validate(topo, 0, 1); err == nil {
		t.Error("dead channel should fail validation")
	}
}

func TestRouteDestAndString(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	r := Route{geom.East, geom.North}
	if got := r.Dest(topo, 0); got != topo.ID(geom.Coord{X: 1, Y: 1}) {
		t.Fatalf("Dest = %v", got)
	}
	if r.String() != "[E,N]" {
		t.Fatalf("String = %q", r.String())
	}
	bad := Route{geom.North}
	if got := bad.Dest(topo, topo.ID(geom.Coord{X: 0, Y: 3})); got != geom.InvalidNode {
		t.Fatalf("off-mesh Dest = %v, want InvalidNode", got)
	}
}

func TestUpDownSelfAndDeadRoutes(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	topo.DisableRouter(8)
	u := NewUpDown(topo)
	if r, ok := u.TreeRoute(2, 2); !ok || r.Len() != 0 {
		t.Fatal("self route should be empty and ok")
	}
	if _, ok := u.TreeRoute(8, 0); ok {
		t.Fatal("route from dead router should fail")
	}
	if _, ok := u.TreeRoute(0, 8); ok {
		t.Fatal("route to dead router should fail")
	}
	if _, ok := u.TreeRoute(8, 8); ok {
		t.Fatal("self route at dead router should fail")
	}
}

func TestTreeRouteMatchesTreeNextHop(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 15, 3)
	u := NewUpDown(topo)
	m := NewMinimal(topo)
	for src := geom.NodeID(0); src < 64; src += 5 {
		for dst := geom.NodeID(0); dst < 64; dst += 7 {
			r, ok := u.TreeRoute(src, dst)
			if ok != m.Reachable(src, dst) {
				t.Fatalf("TreeRoute ok=%v but reachable=%v for %v→%v", ok, m.Reachable(src, dst), src, dst)
			}
			if !ok {
				continue
			}
			if err := r.Validate(topo, src, dst); err != nil {
				t.Fatal(err)
			}
			if r.Len() < m.Distance(src, dst) {
				t.Fatal("tree route shorter than shortest path")
			}
		}
	}
}

func TestTreeAlgorithmIsDeterministic(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	alg := NewUpDown(topo).TreeAlgorithm()
	if alg.Name() != "spanning_tree" {
		t.Fatalf("name = %q", alg.Name())
	}
	rng := rand.New(rand.NewSource(1))
	a, _ := alg.Route(0, 35, rng)
	b, _ := alg.Route(0, 35, rng)
	if a.String() != b.String() {
		t.Fatal("tree routes must be deterministic")
	}
}

func TestTreeRoutingHasStretch(t *testing.T) {
	// The conservative baseline must be measurably non-minimal on a
	// healthy mesh (that is its cost).
	topo := topology.NewMesh(8, 8)
	u := NewUpDown(topo)
	m := NewMinimal(topo)
	var tree, min float64
	for src := geom.NodeID(0); src < 64; src++ {
		for dst := geom.NodeID(0); dst < 64; dst++ {
			if src == dst {
				continue
			}
			r, ok := u.TreeRoute(src, dst)
			if !ok {
				t.Fatal("healthy mesh must be tree-routable")
			}
			tree += float64(r.Len())
			min += float64(m.Distance(src, dst))
		}
	}
	if tree/min < 1.1 {
		t.Fatalf("tree stretch %.3f suspiciously low", tree/min)
	}
}

func TestRootPolicyLowestID(t *testing.T) {
	topo := topology.NewMesh(5, 5)
	u := NewUpDownRooted(topo, RootLowestID)
	if u.Root(12) != 0 {
		t.Fatalf("lowest-id root = %v, want 0", u.Root(12))
	}
	if !u.DependencyAcyclic() {
		t.Fatal("up/down must stay acyclic with any root")
	}
}

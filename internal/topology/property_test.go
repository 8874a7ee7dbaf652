package topology

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// Property suites over the topology graph algorithms (testing/quick).

// randomTopo derives a topology from compact fuzzable inputs.
func randomTopo(wRaw, hRaw uint8, seed int64, lfRaw, rfRaw uint8) *Topology {
	w := int(wRaw%10) + 2
	h := int(hRaw%10) + 2
	t := NewMesh(w, h)
	rng := rand.New(rand.NewSource(seed))
	RandomLinkFaults(t, rng, int(lfRaw)%(MaxFaults(w, h, LinkFaults)+1))
	RandomRouterFaults(t, rng, int(rfRaw)%(w*h/2+1))
	return t
}

func TestPropComponentsPartitionAliveRouters(t *testing.T) {
	f := func(w, h uint8, seed int64, lf, rf uint8) bool {
		topo := randomTopo(w, h, seed, lf, rf)
		seen := map[geom.NodeID]int{}
		comps := topo.ConnectedComponents()
		for ci, comp := range comps {
			if !slices.IsSorted(comp) || ci > 0 && comps[ci-1][0] >= comp[0] {
				return false // members ascending, components by smallest member
			}
			for _, n := range comp {
				if _, dup := seen[n]; dup {
					return false // node in two components
				}
				seen[n] = ci
				if !topo.RouterAlive(n) {
					return false // dead node in a component
				}
			}
		}
		return len(seen) == topo.AliveRouterCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropComponentsInternallyConnected(t *testing.T) {
	f := func(w, h uint8, seed int64, lf, rf uint8) bool {
		topo := randomTopo(w, h, seed, lf, rf)
		for _, comp := range topo.ConnectedComponents() {
			dist := topo.BFSDistances(comp[0])
			for _, n := range comp {
				if dist[n] < 0 {
					return false // member unreachable from its own component head
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropCycleCriterionMatchesEulerBound(t *testing.T) {
	// edges > nodes − components  ⇔  HasTopologyCycle (by construction);
	// cross-check against the directed no-U-turn search.
	f := func(w, h uint8, seed int64, lf, rf uint8) bool {
		topo := randomTopo(w, h, seed, lf, rf)
		return topo.HasTopologyCycle() == topo.HasNoUTurnCycle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropBFSTriangleInequality(t *testing.T) {
	f := func(w, h uint8, seed int64, lf uint8, aRaw, bRaw uint8) bool {
		topo := randomTopo(w, h, seed, lf, 0)
		n := topo.NumNodes()
		a := geom.NodeID(int(aRaw) % n)
		b := geom.NodeID(int(bRaw) % n)
		da := topo.BFSDistances(a)
		if da[b] < 0 {
			return true
		}
		db := topo.BFSDistances(b)
		// Symmetry on bidirectional topologies.
		if db[a] != da[b] {
			return false
		}
		// Triangle inequality through every alive midpoint.
		for m := 0; m < n; m++ {
			if da[m] >= 0 && db[m] >= 0 && da[m]+db[m] < da[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropFaultsOnlyShrinkGraph(t *testing.T) {
	f := func(w, h uint8, seed int64, lf, rf uint8) bool {
		topo := randomTopo(w, h, seed, lf, rf)
		links, routers := topo.AliveLinkCount(), topo.AliveRouterCount()
		rng := rand.New(rand.NewSource(seed + 1))
		if routers > 1 {
			RandomRouterFaults(topo, rng, 1)
		}
		return topo.AliveLinkCount() <= links && topo.AliveRouterCount() <= routers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

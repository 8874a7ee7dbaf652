package routing

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

// FuzzMinimalRouteValidity: any route the minimal router produces over
// any faulted topology must be walkable, shortest, and U-turn free.
func FuzzMinimalRouteValidity(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(0), uint8(63))
	f.Add(int64(42), uint8(50), uint8(10), uint8(12), uint8(51))
	f.Fuzz(func(t *testing.T, seed int64, lf, rf, src, dst uint8) {
		topo := topology.NewMesh(8, 8)
		rng := rand.New(rand.NewSource(seed))
		topology.RandomLinkFaults(topo, rng, int(lf)%113)
		topology.RandomRouterFaults(topo, rng, int(rf)%33)
		m := NewMinimal(topo)
		s, d := geom.NodeID(src%64), geom.NodeID(dst%64)
		r, ok := m.Route(s, d, rng)
		if !ok {
			if m.Reachable(s, d) {
				t.Fatalf("route missing for reachable pair %v→%v", s, d)
			}
			return
		}
		if err := r.Validate(topo, s, d); err != nil {
			t.Fatal(err)
		}
		if r.Len() != m.Distance(s, d) {
			t.Fatalf("route not shortest: %d vs %d", r.Len(), m.Distance(s, d))
		}
	})
}

// FuzzUpDownLegality: tree routes must be walkable and never take an up
// channel after a down channel.
func FuzzUpDownLegality(f *testing.F) {
	f.Add(int64(7), uint8(20), uint8(5), uint8(60))
	f.Add(int64(13), uint8(0), uint8(33), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, lf, src, dst uint8) {
		topo := topology.NewMesh(8, 8)
		rng := rand.New(rand.NewSource(seed))
		topology.RandomLinkFaults(topo, rng, int(lf)%113)
		u := NewUpDown(topo)
		s, d := geom.NodeID(src%64), geom.NodeID(dst%64)
		if r, ok := u.TreeRoute(s, d); ok {
			if err := r.Validate(topo, s, d); err != nil {
				t.Fatal(err)
			}
			if err := checkUpDownLegal(u, topo, s, r); err != nil {
				t.Fatalf("%v in %v from %v", err, r, s)
			}
		}
	})
}

package routing

// Ownership is split. Process-wide values (MinimalFor, UpDownFor) are
// immutable, so one instance may serve every sweep worker concurrently.
// An owned table (NewMinimal, Compile) changes only inside Recompile,
// which reconfig calls between cycles, so between epochs it is read-only
// too. These
// tests drive instances from many goroutines; run under -race (CI's race
// tier does) they prove the lazy-map data race the compilation removed
// stays gone.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

func TestMinimalConcurrentUse(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 15, 11)
	m := NewMinimal(topo)
	n := topo.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf Route
			for i := 0; i < 2000; i++ {
				src := geom.NodeID(rng.Intn(n))
				dst := geom.NodeID(rng.Intn(n))
				m.Distance(src, dst)
				m.Reachable(src, dst)
				m.NextHopMask(src, dst)
				buf, _ = m.AppendRoute(buf[:0], src, dst, rng)
				if _, ok := m.Route(src, dst, rng); ok && !m.Reachable(src, dst) {
					t.Error("route succeeded for unreachable pair")
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

func TestUpDownConcurrentUse(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 15, 11)
	u := NewUpDown(topo).Compile()
	n := topo.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf Route
			for i := 0; i < 2000; i++ {
				src := geom.NodeID(rng.Intn(n))
				dst := geom.NodeID(rng.Intn(n))
				u.Distance(src, dst)
				u.TreeNextHop(src, dst)
				buf, _ = u.AppendRoute(buf[:0], src, dst, rng)
				buf, _ = u.AppendTreeRoute(buf[:0], src, dst)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

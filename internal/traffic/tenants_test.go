package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestTenantMixDeterminismAndIsolation: the multi-tenant mix is
// seed-deterministic, and each tenant's arrival stream is independent of
// the other tenants' presence — removing one tenant leaves the others'
// offered traffic unchanged (per-tenant sub-seeds, not a shared stream).
func TestTenantMixDeterminismAndIsolation(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	alive := topo.AliveRouters()
	min := routing.NewMinimal(topo)
	classes := []TenantClass{
		{Name: "latency", Pattern: NewUniformRandom(alive), RateFlits: 0.05, CtrlFraction: 0.9, CtrlVnet: 0, DataVnet: 1},
		{Name: "bulk", Pattern: BitComplement{Width: 6, Height: 6}, RateFlits: 0.2, CtrlFraction: 0.1, CtrlVnet: 2, DataVnet: 2},
	}

	run := func(cs []TenantClass) network.Stats {
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
		m := NewTenantMix(alive, min, cs, 77)
		for i := 0; i < 3000; i++ {
			m.Tick(s)
			s.Step()
		}
		return s.Stats
	}

	a, b := run(classes), run(classes)
	if a != b {
		t.Fatalf("same-seed tenant mixes diverged:\n%+v\n%+v", a, b)
	}
	if a.Offered == 0 {
		t.Fatal("mix offered nothing")
	}

	// Isolation: tenant 0 alone must offer the same packet count whether
	// or not tenant 1 exists in the mix (its sub-seed depends only on its
	// own index and the mix seed).
	solo := run(classes[:1])
	sP := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	mBoth := NewTenantMix(alive, min, classes, 77)
	// Count only tenant 0's offers by ticking its injector alone.
	for i := 0; i < 3000; i++ {
		mBoth.injs[0].Tick(sP)
		sP.Step()
	}
	if solo.Offered != sP.Stats.Offered {
		t.Fatalf("tenant 0 offered %d alone vs %d in the mix — streams not isolated",
			solo.Offered, sP.Stats.Offered)
	}
}

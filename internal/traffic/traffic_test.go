package traffic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/topology"
)

func TestUniformRandomCoversAllDestinations(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	u := NewUniformRandom(topo.AliveRouters())
	rng := rand.New(rand.NewSource(1))
	seen := map[geom.NodeID]int{}
	const n = 16000
	for i := 0; i < n; i++ {
		seen[u.Dest(0, rng)]++
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d destinations, want 16", len(seen))
	}
	for dst, cnt := range seen {
		frac := float64(cnt) / n
		if math.Abs(frac-1.0/16) > 0.01 {
			t.Errorf("destination %v frequency %.3f, want ~0.0625", dst, frac)
		}
	}
}

func TestUniformRandomPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniformRandom(nil)
}

func TestBitComplement(t *testing.T) {
	b := BitComplement{Width: 8, Height: 8}
	cases := map[geom.Coord]geom.Coord{
		{X: 0, Y: 0}: {X: 7, Y: 7},
		{X: 7, Y: 7}: {X: 0, Y: 0},
		{X: 2, Y: 5}: {X: 5, Y: 2},
		{X: 3, Y: 3}: {X: 4, Y: 4},
	}
	for src, want := range cases {
		if got := b.Dest(src.IDOf(8), nil); got != want.IDOf(8) {
			t.Errorf("bit complement of %v = %v, want %v", src, got.CoordOf(8), want)
		}
	}
	// Involution property.
	for id := geom.NodeID(0); id < 64; id++ {
		if b.Dest(b.Dest(id, nil), nil) != id {
			t.Fatalf("bit complement not an involution at %v", id)
		}
	}
}

func TestTranspose(t *testing.T) {
	tr := Transpose{Width: 8}
	src := geom.Coord{X: 2, Y: 5}.IDOf(8)
	if got := tr.Dest(src, nil); got != (geom.Coord{X: 5, Y: 2}).IDOf(8) {
		t.Fatalf("transpose = %v", got.CoordOf(8))
	}
	for id := geom.NodeID(0); id < 64; id++ {
		if tr.Dest(tr.Dest(id, nil), nil) != id {
			t.Fatal("transpose not an involution")
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	h := Hotspot{Spot: 5, Fraction: 0.3, Uniform: NewUniformRandom(topo.AliveRouters())}
	rng := rand.New(rand.NewSource(2))
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if h.Dest(0, rng) == 5 {
			hits++
		}
	}
	frac := float64(hits) / n
	// Spot also receives ~1/16 of the uniform share.
	want := 0.3 + 0.7/16
	if math.Abs(frac-want) > 0.02 {
		t.Fatalf("hotspot fraction %.3f, want ~%.3f", frac, want)
	}
}

func TestPatternNames(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	u := NewUniformRandom(topo.AliveRouters())
	if u.Name() != "uniform_random" ||
		(BitComplement{}).Name() != "bit_complement" ||
		(Transpose{}).Name() != "transpose" ||
		(Hotspot{Uniform: u}).Name() != "hotspot" {
		t.Fatal("unexpected pattern names")
	}
}

func TestAppProfilesSane(t *testing.T) {
	all := append(Rodinia(), Parsec()...)
	names := map[string]bool{}
	for _, p := range all {
		if p.Name == "" || p.RateFlits <= 0 || p.WorkPackets <= 0 || p.BurstLen <= 0 {
			t.Fatalf("profile %+v malformed", p)
		}
		if names[p.Name] {
			t.Fatalf("duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
	}
	if len(Rodinia()) != 5 {
		t.Fatal("Fig. 12 uses five Rodinia workloads")
	}
	// PARSEC rates are an order of magnitude below Rodinia's heavy hitters.
	for _, p := range Parsec() {
		if p.RateFlits > 0.03 {
			t.Fatalf("PARSEC profile %s rate %.3f too high", p.Name, p.RateFlits)
		}
	}
}

func TestCenterMostPrefersCenter(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(13)))
	got := centerMost(s, topo.AliveRouters())
	if got != topo.ID(geom.Coord{X: 3, Y: 3}) {
		t.Fatalf("centerMost = %v", got)
	}
	// With the center dead, a neighbor is picked.
	topo.DisableRouter(got)
	got2 := centerMost(s, topo.AliveRouters())
	if geom.ManhattanDistance(topo.Coord(got2), geom.Coord{X: 3, Y: 3}) != 1 {
		t.Fatalf("fallback centerMost = %v", got2)
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The 256-core configuration from Table I: 16×16 mesh, 89 bubbles.

func TestScale16x16PlacementAndCoverage(t *testing.T) {
	topo := topology.NewMesh(16, 16)
	if got := len(Placement(16, 16)); got != 89 {
		t.Fatalf("16x16 placement = %d, want 89", got)
	}
	if !VerifyCoverage(topo) {
		t.Fatal("coverage lemma must hold at 16x16")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		irr := topology.NewMesh(16, 16)
		topology.RandomLinkFaults(irr, rng, rng.Intn(150))
		topology.RandomRouterFaults(irr, rng, rng.Intn(40))
		if !VerifyCoverage(irr) {
			t.Fatalf("trial %d: 16x16 coverage violated", trial)
		}
	}
}

func TestScale16x16RecoveryWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("16x16 soak skipped in -short mode")
	}
	topo := topology.RandomIrregular(16, 16, topology.LinkFaults, 30, 5)
	min := routing.NewMinimal(topo)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	Attach(s, Options{TDD: 34})
	rng := rand.New(rand.NewSource(2))
	offered := int64(0)
	for cyc := 0; cyc < 6000; cyc++ {
		if cyc < 4000 {
			for n := 0; n < 256; n++ {
				if !topo.RouterAlive(geom.NodeID(n)) || rng.Float64() >= 0.03 {
					continue
				}
				dst := geom.NodeID(rng.Intn(256))
				r, ok := min.Route(geom.NodeID(n), dst, rng)
				if !ok {
					s.Drop()
					continue
				}
				ln := 1
				if rng.Intn(2) == 0 {
					ln = 5
				}
				s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), ln, r))
				offered++
			}
		}
		s.Step()
	}
	for i := 0; i < 300000 && s.InFlight()+s.QueuedPackets() > 0; i += 200 {
		s.Run(200)
	}
	if s.Stats.Delivered != offered {
		t.Fatalf("16x16: delivered %d of %d (in flight %d, queued %d, recoveries %d)",
			s.Stats.Delivered, offered, s.InFlight(), s.QueuedPackets(),
			s.Stats.DeadlockRecoveries)
	}
}

func TestScale16x16ConstructedDeadlock(t *testing.T) {
	// A wedged loop far from low-id bubble routers still recovers.
	topo := topology.NewMesh(16, 16)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
	Attach(s, Options{TDD: 20})
	loop := []geom.NodeID{
		topo.ID(geom.Coord{X: 12, Y: 12}),
		topo.ID(geom.Coord{X: 12, Y: 13}),
		topo.ID(geom.Coord{X: 13, Y: 13}),
		topo.ID(geom.Coord{X: 13, Y: 12}),
	}
	total := 0
	for i, n := range loop {
		next, next2 := loop[(i+1)%4], loop[(i+2)%4]
		d1 := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
		d2 := geom.DirectionBetween(topo.Coord(next), topo.Coord(next2))
		for k := 0; k < 12; k++ {
			s.Enqueue(s.NewPacket(n, next2, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	s.Run(30000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d", s.Stats.Delivered, total)
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("expected recovery at 16x16")
	}
}

func TestNonSquareMeshCoverageAndRecovery(t *testing.T) {
	// Rectangular meshes are first-class: the placement rule is n×m.
	for _, sz := range [][2]int{{4, 12}, {12, 4}, {6, 10}} {
		topo := topology.NewMesh(sz[0], sz[1])
		if !VerifyCoverage(topo) {
			t.Fatalf("%dx%d coverage violated", sz[0], sz[1])
		}
	}
	// Recovery on a 4x12 strip.
	topo := topology.NewMesh(4, 12)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(4)))
	Attach(s, Options{TDD: 20})
	loop := []geom.NodeID{
		topo.ID(geom.Coord{X: 1, Y: 5}),
		topo.ID(geom.Coord{X: 1, Y: 6}),
		topo.ID(geom.Coord{X: 2, Y: 6}),
		topo.ID(geom.Coord{X: 2, Y: 5}),
	}
	total := 0
	for i, n := range loop {
		next, next2 := loop[(i+1)%4], loop[(i+2)%4]
		d1 := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
		d2 := geom.DirectionBetween(topo.Coord(next), topo.Coord(next2))
		for k := 0; k < 12; k++ {
			s.Enqueue(s.NewPacket(n, next2, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	s.Run(30000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("4x12: delivered %d of %d", s.Stats.Delivered, total)
	}
}

func TestUnidirectionalFaultCoverage(t *testing.T) {
	// uDIREC-style unidirectional link failures only remove channels, so
	// the coverage lemma holds a fortiori (fewer cycles than the
	// bidirectional graph).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		topo := topology.NewMesh(8, 8)
		for k := 0; k < 30; k++ {
			n := geom.NodeID(rng.Intn(64))
			d := geom.LinkDirs[rng.Intn(4)]
			topo.DisableDirectedLink(n, d)
		}
		if !VerifyCoverage(topo) {
			t.Fatalf("trial %d: unidirectional coverage violated", trial)
		}
	}
}

func TestUnidirectionalFaultRecovery(t *testing.T) {
	// Minimal routing handles one-way channels natively; recovery must
	// still drain a constructed deadlock when some reverse channels are
	// dead nearby.
	topo := topology.NewMesh(4, 4)
	topo.DisableDirectedLink(topo.ID(geom.Coord{X: 0, Y: 2}), geom.East)
	topo.DisableDirectedLink(topo.ID(geom.Coord{X: 3, Y: 1}), geom.North)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	Attach(s, Options{TDD: 20})
	total := buildDeadlockOn44(s, 12)
	s.Run(30000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d", s.Stats.Delivered, total)
	}
}

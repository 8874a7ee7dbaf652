package disha

import (
	"math/rand"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestHamiltonianCycleValid(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {5, 6}, {3, 4}} {
		path, err := HamiltonianCycle(sz[0], sz[1])
		if err != nil {
			t.Fatalf("%dx%d: %v", sz[0], sz[1], err)
		}
		if len(path) != sz[0]*sz[1] {
			t.Fatalf("%dx%d: path visits %d of %d nodes", sz[0], sz[1], len(path), sz[0]*sz[1])
		}
		seen := map[geom.NodeID]bool{}
		topo := topology.NewMesh(sz[0], sz[1])
		for i, n := range path {
			if seen[n] {
				t.Fatalf("%dx%d: node %v revisited", sz[0], sz[1], n)
			}
			seen[n] = true
			next := path[(i+1)%len(path)]
			d := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
			if d == geom.Invalid {
				t.Fatalf("%dx%d: hop %d not adjacent (%v→%v)", sz[0], sz[1], i, n, next)
			}
		}
	}
}

func TestHamiltonianCycleRejectsOddHeight(t *testing.T) {
	if _, err := HamiltonianCycle(4, 3); err == nil {
		t.Fatal("odd height must be rejected")
	}
	if _, err := HamiltonianCycle(1, 4); err == nil {
		t.Fatal("width 1 must be rejected")
	}
}

// primeRing wedges a 2x2 sub-square of the mesh.
func primeRing(s *network.Sim, x, y, perNode int) int {
	topo := s.Topo
	loop := []geom.NodeID{
		topo.ID(geom.Coord{X: x, Y: y}),
		topo.ID(geom.Coord{X: x, Y: y + 1}),
		topo.ID(geom.Coord{X: x + 1, Y: y + 1}),
		topo.ID(geom.Coord{X: x + 1, Y: y}),
	}
	total := 0
	for i, n := range loop {
		next, next2 := loop[(i+1)%4], loop[(i+2)%4]
		d1 := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
		d2 := geom.DirectionBetween(topo.Coord(next), topo.Coord(next2))
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(n, next2, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	return total
}

func TestDishaRecoversOnHealthyMesh(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c, err := Attach(s, Options{Timeout: 30})
	if err != nil {
		t.Fatal(err)
	}
	total := primeRing(s, 1, 1, 12)
	s.Run(60000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (recoveries %d, token stalls %d)",
			s.Stats.Delivered, total, c.Recoveries, c.TokenStalls)
	}
	if c.Recoveries == 0 {
		t.Fatal("expected token-based recoveries")
	}
	if deadlock.IsDeadlocked(s) {
		t.Fatal("network still deadlocked")
	}
}

func TestDishaTokenBreaksOnIrregularTopology(t *testing.T) {
	// The paper's argument (Section II-B): kill one link on the token's
	// circulation path and DISHA's recovery silently stops — the wedge
	// persists even though the topology remains fully connected.
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	c, err := Attach(s, Options{Timeout: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Break a boundary link on the Hamiltonian cycle, far from the wedge.
	topo.DisableLink(topo.ID(geom.Coord{X: 0, Y: 3}), geom.South)
	if len(topo.LargestComponent()) != 16 {
		t.Fatal("setup: topology must stay connected")
	}
	total := primeRing(s, 1, 1, 12)
	s.Run(60000)
	if s.Stats.Delivered == int64(total) {
		t.Fatal("DISHA should NOT fully recover with a broken token path")
	}
	if c.TokenStalls == 0 {
		t.Fatal("expected the token to stall at the dead link")
	}
	if !deadlock.IsDeadlocked(s) {
		t.Fatal("the wedge should persist")
	}
}

func TestDishaXYDrainBreaksAroundFaults(t *testing.T) {
	// Second failure mode: the token circulates fine, but the dedicated
	// network's XY routing cannot reach the destination around a fault.
	// Wedge a ring whose packets' XY drain paths cross a dead link.
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
	c, err := Attach(s, Options{Timeout: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Break the (2,0)-(2,1) link: the X-then-Y path from (0,0) to (2,2)
	// dies at its turn, while adaptive minimal routes around it survive.
	src := topo.ID(geom.Coord{X: 0, Y: 0})
	dst := topo.ID(geom.Coord{X: 2, Y: 2})
	topo.DisableLink(topo.ID(geom.Coord{X: 2, Y: 0}), geom.North)
	if _, ok := xyDistance(topo, src, dst); ok {
		t.Fatal("setup: XY path should be broken")
	}
	if !routing.NewMinimal(topo).Reachable(src, dst) {
		t.Fatal("setup: destination must remain reachable adaptively")
	}
	// A packet wedged at src for dst cannot be drained by DISHA.
	p := s.NewPacket(src, dst, 0, 5, routing.Route{geom.North, geom.North, geom.East, geom.East})
	s.Routers[src].Buf(int(geom.Local) * network.SlotsPerPort).Pkt = p
	if ok := c.drain(src, int(geom.Local)*network.SlotsPerPort); ok {
		t.Fatal("drain must refuse a broken XY path")
	}
}

func TestDishaLatencyReflectsTokenWait(t *testing.T) {
	// Recovery latency includes waiting for the token to circulate to the
	// wedged router — the inefficiency the paper contrasts with SB's
	// local detection.
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(4)))
	c, err := Attach(s, Options{Timeout: 30})
	if err != nil {
		t.Fatal(err)
	}
	total := primeRing(s, 5, 5, 12)
	s.Run(120000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (recoveries %d)", s.Stats.Delivered, total, c.Recoveries)
	}
	// The wedged packets must wait for the token to travel the 64-node
	// loop (2 cycles/hop) to the wedge on top of the detection timeout:
	// worst-observed latency has to exceed timeout + a substantial part
	// of one token revolution. (Draining one packet un-wedges the ring,
	// so later packets flow normally — the tail is bounded.)
	if s.Stats.MaxLatency < 30+100 {
		t.Fatalf("max latency %d too low: no token wait visible", s.Stats.MaxLatency)
	}
}

func TestDishaAttachRejectsOddMesh(t *testing.T) {
	topo := topology.NewMesh(4, 3)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	if _, err := Attach(s, Options{}); err == nil {
		t.Fatal("attach must fail when no Hamiltonian cycle exists")
	}
}

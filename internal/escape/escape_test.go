package escape

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// enqueueClockwiseRing primes a 2x2 mesh with a guaranteed deadlock among
// the regular VCs (3 usable per vnet under the escape reservation).
func enqueueClockwiseRing(s *network.Sim, perNode int) int {
	hops := map[geom.NodeID]geom.Direction{0: geom.North, 2: geom.East, 3: geom.South, 1: geom.West}
	total := 0
	for _, n := range []geom.NodeID{0, 2, 3, 1} {
		d1 := hops[n]
		mid := s.Topo.Neighbor(n, d1)
		d2 := hops[mid]
		dst := s.Topo.Neighbor(mid, d2)
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(n, dst, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	return total
}

func TestEscapeRecoversRingDeadlock(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ud := routing.NewUpDown(topo)
	Attach(s, ud)
	total := enqueueClockwiseRing(s, 12)
	s.Run(20000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (escape transfers %d)",
			s.Stats.Delivered, total, s.Stats.EscapeTransfers)
	}
	if s.Stats.EscapeTransfers == 0 {
		t.Fatal("expected packets to take the escape path")
	}
}

func TestEscapeVCsStayReserved(t *testing.T) {
	// The escape VC slot of each vnet holds escaped packets only: no
	// regular packet may ever sit in it.
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	ud := routing.NewUpDown(topo)
	Attach(s, ud)
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(3))
	for cyc := 0; cyc < 500; cyc++ {
		for n := 0; n < 16; n++ {
			if rng.Float64() < 0.05 {
				dst := geom.NodeID(rng.Intn(16))
				if r, ok := min.Route(geom.NodeID(n), dst, rng); ok {
					s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 5, r))
				}
			}
		}
		s.Step()
		for id := range s.Routers {
			r := &s.Routers[id]
			for _, port := range geom.AllPorts {
				for vnet := 0; vnet < network.NumVnets; vnet++ {
					if p := r.In[port][vnet*network.VCsPerVnet+EscapeVCIndex].Pkt; p != nil && !p.Escaped {
						t.Fatalf("cycle %d: escape VC occupied by regular packet %d", cyc, p.ID)
					}
				}
			}
		}
	}
	if s.Stats.Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
}

func TestEscapedPacketsFollowTree(t *testing.T) {
	// Force a packet to escape immediately and verify it is delivered via
	// tree routing even though its embedded route is wrong.
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(4)))
	ud := routing.NewUpDown(topo)
	Attach(s, ud)
	// A bogus route pointing the wrong way: the packet will stall at its
	// first router (no, it will follow the route; block it instead).
	// Simpler: occupy the packet's desired next hop VCs forever by
	// stalling ejection at the route target, forcing the timeout.
	dst := topo.ID(geom.Coord{X: 3, Y: 3})
	src := topo.ID(geom.Coord{X: 0, Y: 0})
	min := routing.NewMinimal(topo)
	r, _ := min.Route(src, dst, nil)
	p := s.NewPacket(src, dst, 0, 1, r)
	// Stall the first hop: disable the link the route uses after
	// injection is impossible; instead make all VCs at the next router
	// busy by setting OutFreeAt far ahead on the source router's route
	// output — the packet then waits at the source and times out.
	s.Routers[src].OutFreeAt[r[0]] = 200
	s.Enqueue(p)
	s.Run(400)
	if p.DeliveredAt < 0 {
		t.Fatal("escaped packet not delivered")
	}
	if !p.Escaped {
		t.Fatal("packet should have escaped after the stall")
	}
	if s.Stats.EscapeTransfers != 1 {
		t.Fatalf("escape transfers = %d, want 1", s.Stats.EscapeTransfers)
	}
}

func TestEscapeHighLoadDrains(t *testing.T) {
	// The escape-VC scheme guarantees drain on connected irregular
	// topologies: escape paths form a tree (acyclic) with reserved VCs.
	for seed := int64(0); seed < 3; seed++ {
		topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 10, seed)
		min := routing.NewMinimal(topo)
		ud := routing.NewUpDown(topo)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
		Attach(s, ud)
		rng := rand.New(rand.NewSource(seed + 100))
		offered := int64(0)
		for cyc := 0; cyc < 4000; cyc++ {
			if cyc < 2500 {
				for n := 0; n < 36; n++ {
					if !topo.RouterAlive(geom.NodeID(n)) {
						continue
					}
					if rng.Float64() < 0.10 {
						dst := geom.NodeID(rng.Intn(36))
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
			}
			s.Step()
		}
		for i := 0; i < 200000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
			s.Run(100)
		}
		if s.Stats.Delivered != offered {
			t.Fatalf("seed %d: delivered %d of %d (in flight %d, queued %d, escapes %d)",
				seed, s.Stats.Delivered, offered, s.InFlight(), s.QueuedPackets(),
				s.Stats.EscapeTransfers)
		}
	}
}

func TestTimerResetsOnMovement(t *testing.T) {
	// A slow but moving packet must not be forced into the escape path.
	topo := topology.NewMesh(8, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	ud := routing.NewUpDown(topo)
	Attach(s, ud)
	// Send a long stream: head-of-line packets wait a little at each hop
	// but keep moving.
	for i := 0; i < 20; i++ {
		s.Enqueue(s.NewPacket(0, 7, 0, 5, routing.Route{
			geom.East, geom.East, geom.East, geom.East, geom.East, geom.East, geom.East,
		}))
	}
	s.Run(800)
	if s.Stats.Delivered != 20 {
		t.Fatalf("delivered %d of 20", s.Stats.Delivered)
	}
	if s.Stats.EscapeTransfers != 0 {
		t.Fatalf("moving traffic escaped %d times; timers should reset on movement",
			s.Stats.EscapeTransfers)
	}
}

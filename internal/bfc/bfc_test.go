package bfc

import (
	"math/rand"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestBoundaryRingValid(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {4, 4}, {8, 8}, {3, 5}} {
		topo := topology.NewMesh(sz[0], sz[1])
		r := BoundaryRing(topo)
		if err := r.Validate(topo); err != nil {
			t.Fatalf("%dx%d: %v", sz[0], sz[1], err)
		}
		wantLen := 2*(sz[0]-1) + 2*(sz[1]-1)
		if r.Len() != wantLen {
			t.Fatalf("%dx%d: ring length %d, want %d", sz[0], sz[1], r.Len(), wantLen)
		}
	}
}

func TestRingValidateRejectsBroken(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	short := Ring{Nodes: []geom.NodeID{0, 1}, Dirs: []geom.Direction{geom.East, geom.West}}
	if short.Validate(topo) == nil {
		t.Fatal("short ring should fail")
	}
	r := BoundaryRing(topo)
	topo.DisableLink(0, geom.East)
	if r.Validate(topo) == nil {
		t.Fatal("ring over a dead channel should fail")
	}
	dup := Ring{
		Nodes: []geom.NodeID{0, 1, 0, 1},
		Dirs:  []geom.Direction{geom.East, geom.West, geom.East, geom.West},
	}
	if dup.Validate(topology.NewMesh(4, 4)) == nil {
		t.Fatal("revisiting ring should fail")
	}
}

func TestRingNext(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	r := BoundaryRing(topo)
	if r.Next(0) != geom.East {
		t.Fatalf("Next(0) = %v", r.Next(0))
	}
	center := topo.ID(geom.Coord{X: 1, Y: 1})
	if r.Next(center) != geom.Invalid {
		t.Fatal("interior node is not on the boundary ring")
	}
}

func TestAttachRejectsOverlap(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	r := BoundaryRing(topo)
	if err := Attach(s, r, r); err == nil {
		t.Fatal("overlapping rings must be rejected")
	}
	for id := range s.Routers {
		if s.Routers[id].Ring.Active {
			t.Fatalf("a rejected Attach left a ring rule at router %d", id)
		}
	}
	if err := Attach(s, r); err != nil {
		t.Fatal(err)
	}
	// Ring transit reaches the south-west corner travelling south, on its
	// North port, and leaves east.
	if got := s.Routers[0].Ring; got != (network.Ring{Active: true, In: geom.North, Out: geom.East}) {
		t.Fatalf("ring rule at the south-west corner = %+v", got)
	}
	if err := Attach(s, r); err == nil {
		t.Fatal("a ring overlapping one attached before must be rejected")
	}
}

// ringRoute is the route of a packet travelling hops hops along r from
// r.Nodes[i], and its destination.
func ringRoute(s *network.Sim, r Ring, i, hops int) (routing.Route, geom.NodeID) {
	var route routing.Route
	cur := r.Nodes[i]
	for k := 0; k < hops; k++ {
		d := r.Dirs[(i+k)%r.Len()]
		route = append(route, d)
		cur = s.Topo.Neighbor(cur, d)
	}
	return route, cur
}

// ringStream offers one cycle of ring traffic: every ring node, with
// probability rate, sends a 5-flit vnet-0 packet 1..Len/2 hops along the
// ring. It returns the number offered.
func ringStream(s *network.Sim, r Ring, rng *rand.Rand, rate float64) int {
	offered := 0
	for i, src := range r.Nodes {
		if rng.Float64() >= rate {
			continue
		}
		route, dst := ringRoute(s, r, i, 1+rng.Intn(r.Len()/2))
		s.Enqueue(s.NewPacket(src, dst, 0, 5, route))
		offered++
	}
	return offered
}

// ringWorkload streams packets along the boundary ring: every ring node
// sends perNode packets halfway around. Routes follow the ring
// exclusively, making the ring deadlock-prone without BFC.
func ringWorkload(s *network.Sim, r Ring, perNode int) int {
	for i, src := range r.Nodes {
		route, dst := ringRoute(s, r, i, r.Len()/2)
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(src, dst, 0, 5, route))
		}
	}
	return perNode * r.Len()
}

// heldEntries counts the buffered packets the ring rule alone holds this
// cycle: head-ready ring entries bound for a ring output whose
// downstream port has exactly one free VC of their vnet.
func heldEntries(s *network.Sim) int {
	held := 0
	for id := range s.Routers {
		r := &s.Routers[id]
		if !r.Ring.Active {
			continue
		}
		at := geom.NodeID(id)
		nb, in := s.Topo.Neighbor(at, r.Ring.Out), r.Ring.Out.Opposite()
		for _, port := range geom.AllPorts {
			for sl := range r.In[port] {
				vc := &r.In[port][sl]
				if port == r.Ring.In || !vc.HeadReady(s.Now) || s.OutputOf(vc.Pkt, at) != r.Ring.Out {
					continue
				}
				free := 0
				for v := 0; v < s.Cfg.VCsPerVnet; v++ {
					if s.Routers[nb].VCAt(s.Cfg, in, vc.Pkt.Vnet, v).Empty(s.Now) {
						free++
					}
				}
				if free == 1 {
					held++
				}
			}
		}
	}
	return held
}

func TestRingWithoutBFCDeadlocks(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ringWorkload(s, BoundaryRing(topo), 10)
	s.Run(5000)
	if !deadlock.IsDeadlocked(s) {
		t.Fatal("heavy ring workload without BFC should deadlock")
	}
}

func TestRingWithBFCNeverDeadlocks(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	if err := Attach(s, BoundaryRing(topo)); err != nil {
		t.Fatal(err)
	}
	total := ringWorkload(s, BoundaryRing(topo), 10)
	held := 0
	for cyc := 0; cyc < 20000 && s.InFlight()+s.QueuedPackets() > 0; cyc++ {
		held += heldEntries(s)
		s.Step()
		if cyc%50 == 49 && deadlock.IsDeadlocked(s) {
			t.Fatalf("deadlock under BFC at cycle %d", s.Now)
		}
	}
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d under BFC", s.Stats.Delivered, total)
	}
	if held == 0 {
		t.Fatal("the bubble condition never held a ring entry (workload too light?)")
	}
}

// ringRun drives a size×size mesh under BFC on its boundary ring: a ring
// stream at rate for the first inject of total cycles, then drain more
// cycles, failing on a deadlock or an undelivered packet.
func ringRun(t *testing.T, size int, simSeed, streamSeed int64, rate float64, inject, total, drain int) *network.Sim {
	t.Helper()
	topo := topology.NewMesh(size, size)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(simSeed)))
	ring := BoundaryRing(topo)
	if err := Attach(s, ring); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(streamSeed))
	offered := 0
	for cyc := 0; cyc < total; cyc++ {
		if cyc < inject {
			offered += ringStream(s, ring, rng, rate)
		}
		s.Step()
		if cyc%500 == 499 && deadlock.IsDeadlocked(s) {
			t.Fatalf("deadlock under BFC at cycle %d", s.Now)
		}
	}
	s.Run(drain)
	if s.Stats.Delivered != int64(offered) {
		t.Fatalf("delivered %d of %d", s.Stats.Delivered, offered)
	}
	return s
}

// The two pinned runs below carry the full Stats captured when the ring
// rule was a grant veto called from the generic allocation path; as a
// rule the allocator reads, it must reproduce them byte for byte on the
// fused pass.

func TestBFCSoakOnLargerRing(t *testing.T) {
	// Sustained random ring traffic on an 8x8 boundary (28 nodes): BFC
	// holds the bubble invariant indefinitely.
	want := network.Stats{Offered: 6736, Injected: 6736, Delivered: 6736,
		InjectedFlits: 33680, DeliveredFlits: 33680, SumLatency: 26718405,
		SumNetLatency: 2086114, MaxLatency: 8991, HopMoves: 51165,
		LinkCycles: [network.NumLinkClasses]int64{255825}}
	if got := ringRun(t, 8, 2, 3, 0.06, 4000, 6000, 20000).Stats; got != want {
		t.Fatalf("stats\n got %+v\nwant %+v", got, want)
	}
}

// TestBubbleflowExampleStats is examples/bubbleflow's BFC run: a 6x6
// boundary ring (20 nodes) at 0.08 packets per node per cycle.
func TestBubbleflowExampleStats(t *testing.T) {
	want := network.Stats{Offered: 12840, Injected: 12840, Delivered: 12840,
		InjectedFlits: 64200, DeliveredFlits: 64200, SumLatency: 91415511,
		SumNetLatency: 2896366, MaxLatency: 15240, HopMoves: 70433,
		LinkCycles: [network.NumLinkClasses]int64{352165}}
	if got := ringRun(t, 6, 1, 2, 0.08, 8000, 12000, 20000).Stats; got != want {
		t.Fatalf("stats\n got %+v\nwant %+v", got, want)
	}
}

func TestBFCDoesNotBlockOffRingTraffic(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(4)))
	if err := Attach(s, BoundaryRing(topo)); err != nil {
		t.Fatal(err)
	}
	// Interior traffic is untouched by the filter.
	min := routing.NewMinimal(topo)
	src := topo.ID(geom.Coord{X: 1, Y: 1})
	dst := topo.ID(geom.Coord{X: 2, Y: 2})
	r, _ := min.Route(src, dst, nil)
	p := s.NewPacket(src, dst, 0, 5, r)
	s.Enqueue(p)
	s.Run(40)
	if p.DeliveredAt < 0 {
		t.Fatal("interior packet blocked by ring BFC")
	}
}

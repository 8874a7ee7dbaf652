package network

// Microbenchmarks for the switch-allocation inner loops, generic vs
// fused, plus the grant and bubble-transfer primitives they share. The
// trick making repeated calls honest: with s.Now frozen, one priming
// sweep performs whatever grants the cycle allows (marking each granted
// output busy via OutFreeAt), after which every further sweep over the
// same state is the pure classify-and-reject inner loop — the dominant
// cost under congestion — with no state drift between iterations.

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// saturatedSim drives an 8x8 mesh past its saturation point for enough
// cycles that every router holds blocked traffic, then freezes it.
func saturatedSim(tb testing.TB) *Sim {
	tb.Helper()
	topo := topology.NewMesh(8, 8)
	s := New(topo, Config{}, rand.New(rand.NewSource(17)))
	xy := routing.NewXY(topo)
	rng := rand.New(rand.NewSource(18))
	n := topo.NumNodes()
	for c := 0; c < 600; c++ {
		for i := 0; i < n; i++ {
			if rng.Float64() >= 0.5 {
				continue
			}
			dst := geom.NodeID(rng.Intn(n))
			if dst == geom.NodeID(i) {
				continue
			}
			if r, ok := xy.Route(geom.NodeID(i), dst, nil); ok {
				s.Enqueue(s.NewPacket(geom.NodeID(i), dst, rng.Intn(NumVnets), 5, r))
			}
		}
		s.Step()
	}
	return s
}

// prime runs one allocation sweep at the frozen cycle so the timed
// iterations see stable post-grant state (granted outputs busy).
func prime(s *Sim) {
	for id := range s.Routers {
		s.AllocateNode(geom.NodeID(id))
	}
}

// BenchmarkGatherAllocateSaturated times the generic allocator's
// classification inner loop (candidate bucketing plus conservative
// pruning) over every router of a saturated mesh.
func BenchmarkGatherAllocateSaturated(b *testing.B) {
	s := saturatedSim(b)
	prime(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := range s.Routers {
			s.gatherAllocate(geom.NodeID(id), &s.seqGather)
		}
	}
}

// BenchmarkDenseAllocNodeSaturated times the fused
// classify-and-arbitrate pass over the same saturated state — the
// direct generic-vs-fused inner-loop comparison.
func BenchmarkDenseAllocNodeSaturated(b *testing.B) {
	s := saturatedSim(b)
	prime(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := range s.Routers {
			s.denseAllocNode(geom.NodeID(id))
		}
	}
}

// BenchmarkTryGrantRejected times the grant primitive's rejection path
// (no free downstream buffer), the case congestion makes dominant.
func BenchmarkTryGrantRejected(b *testing.B) {
	s := saturatedSim(b)
	prime(s)
	slots := SlotsPerPort
	total := geom.NumPorts * slots
	// Find a ready candidate whose desired link output is up but whose
	// downstream vnet has no free buffer: tryGrant must reject it, and
	// rejection leaves no trace, so the call repeats indefinitely.
	for id := range s.Routers {
		r := &s.Routers[id]
		for ci := 0; ci < total; ci++ {
			vc := r.Buf(ci)
			p := vc.Pkt
			if p == nil || vc.ReadyAt > s.Now {
				continue
			}
			out := s.OutputOf(p, geom.NodeID(id))
			if out == geom.Invalid || out == geom.Local || !s.Topo.HasLink(geom.NodeID(id), out) {
				continue
			}
			nb := s.Topo.Neighbor(geom.NodeID(id), out)
			in := out.Opposite()
			if s.bubbleOpen(nb, in) || s.findFreeVC(nb, in, p) >= 0 {
				continue
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.tryGrant(r, out, ci) {
					b.Fatal("blocked grant unexpectedly succeeded")
				}
			}
			return
		}
	}
	b.Skip("no blocked candidate found at saturation")
}

// BenchmarkTransferBubbleNodeBlocked times the bubble-transfer
// primitive against a saturated router: the occupant wants out of the
// bubble but every same-port VC is full, so the attempt repeats.
func BenchmarkTransferBubbleNodeBlocked(b *testing.B) {
	s := saturatedSim(b)
	// Occupy a bubble on a router whose West port is fully buffered, so
	// the transfer scan always comes back empty-handed.
	var target geom.NodeID = geom.InvalidNode
	west := slotMask << (int(geom.West) * SlotsPerPort)
	for id, occ := range s.dense.occBits {
		if occ&west == west && occ>>BubbleIndex&1 == 0 {
			target = geom.NodeID(id)
			break
		}
	}
	if target == geom.InvalidNode {
		b.Skip("no fully buffered port found at saturation")
	}
	r := &s.Routers[target]
	r.Bubble.Present = true
	p := r.Buf(int(geom.West) * SlotsPerPort).Pkt
	occupant := s.NewPacket(p.Src, p.Dst, p.Vnet, 1, p.Route)
	s.PlaceBubblePacket(target, geom.West, occupant)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TransferBubbleNode(target)
	}
}

// BenchmarkDenseAllocBlocked10 times the fused pass at the occupancy a
// recovery storm actually runs at: one router holding ten ready heads
// (three input ports, all three vnets, two wanted outputs) whose
// downstream ports are full, so every visit classifies ten candidates
// and grants none — the visit the saturated-mesh benchmark above
// averages away among routers with one or two heads.
func BenchmarkDenseAllocBlocked10(b *testing.B) {
	topo := topology.NewMesh(3, 3)
	s := New(topo, Config{}, rand.New(rand.NewSource(1)))
	mid := topo.ID(geom.Coord{X: 1, Y: 1})
	east, north := topo.Neighbor(mid, geom.East), topo.Neighbor(mid, geom.North)
	per := VCsPerVnet
	// Fill the two downstream input ports completely.
	for slot := 0; slot < SlotsPerPort; slot++ {
		p := s.NewPacket(mid, east, slot/per, 5, routing.Route{geom.East})
		p.Hop = 1
		s.PlacePacket(east, geom.West, slot, p)
		p = s.NewPacket(mid, north, slot/per, 5, routing.Route{geom.North})
		p.Hop = 1
		s.PlacePacket(north, geom.South, slot, p)
	}
	// Ten heads at the center: 4 + 3 + 3 over West/South/Local.
	place := func(in geom.Direction, vnet, n int, out geom.Direction) {
		for i := 0; i < n; i++ {
			p := s.NewPacket(mid, topo.Neighbor(mid, out), vnet, 5, routing.Route{out})
			s.PlacePacket(mid, in, vnet*per+i, p)
		}
	}
	place(geom.West, 0, 4, geom.East)
	place(geom.South, 1, 3, geom.North)
	place(geom.Local, 2, 3, geom.East)
	grants := s.grantN[mid]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.denseAllocNode(mid)
	}
	if s.grantN[mid] != grants {
		b.Fatal("a blocked head was granted")
	}
}

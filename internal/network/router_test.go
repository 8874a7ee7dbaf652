package network

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestBubbleTransferToFreedVC(t *testing.T) {
	// Footnote 6: a bubble occupant slides into a regular VC at the same
	// port as soon as one frees.
	topo := topology.NewMesh(2, 1)
	s := mkSim(topo, 1)
	r := &s.Routers[1]
	r.Bubble.Present = true
	r.Bubble.InPort = geom.West
	// Fill all 4 vnet-0 VCs at West with stalled packets and put one in
	// the bubble.
	s.Routers[1].OutFreeAt[geom.Local] = 1 << 30
	stalled := make([]*Packet, 4)
	for i := range stalled {
		stalled[i] = s.NewPacket(0, 1, 0, 5, routing.Route{geom.East})
		stalled[i].Hop = 1
		s.PlacePacket(1, geom.West, i, stalled[i])
	}
	occupant := s.NewPacket(0, 1, 0, 5, routing.Route{geom.East})
	occupant.Hop = 1
	s.PlaceBubblePacket(1, geom.West, occupant)
	r.Bubble.Active = false // transfer works regardless of Active

	s.Run(3)
	if r.Bubble.VC.Pkt == nil {
		t.Fatal("no VC free yet: occupant must stay put")
	}
	// Free one VC.
	s.RemovePacket(1, int(geom.West)*SlotsPerPort+2)
	s.Run(3)
	if r.Bubble.VC.Pkt != nil {
		t.Fatal("occupant should have transferred into the freed VC")
	}
	if r.In[geom.West][2].Pkt != occupant {
		t.Fatal("occupant should occupy the freed slot")
	}
	if s.Stats.BubbleTransfers != 1 {
		t.Fatalf("BubbleTransfers = %d", s.Stats.BubbleTransfers)
	}
}

func TestBubbleTransferRespectsVnet(t *testing.T) {
	topo := topology.NewMesh(2, 1)
	s := mkSim(topo, 1)
	r := &s.Routers[1]
	r.Bubble.Present = true
	r.Bubble.InPort = geom.West
	// Occupant is vnet 1; only a vnet-0 VC is free.
	occupant := s.NewPacket(0, 1, 1, 5, routing.Route{geom.East})
	occupant.Hop = 1
	s.PlaceBubblePacket(1, geom.West, occupant)
	base := 1 * VCsPerVnet
	for i := 0; i < VCsPerVnet; i++ {
		p := s.NewPacket(0, 1, 1, 5, routing.Route{geom.East})
		p.Hop = 1
		s.PlacePacket(1, geom.West, base+i, p)
	}
	s.Routers[1].OutFreeAt[geom.Local] = 1 << 30
	s.Run(5)
	if r.Bubble.VC.Pkt == nil {
		t.Fatal("occupant must not transfer into a different vnet's VC")
	}
}

func TestOccupancyInvariant(t *testing.T) {
	// occupied and occNonLocal must track reality through a busy run.
	topo := topology.NewMesh(4, 4)
	s := mkSim(topo, 3)
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(5))
	for cyc := 0; cyc < 600; cyc++ {
		if cyc < 400 {
			for n := 0; n < 16; n++ {
				if rng.Float64() < 0.1 {
					dst := geom.NodeID(rng.Intn(16))
					if r, ok := min.Route(geom.NodeID(n), dst, rng); ok {
						s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 5, r))
					}
				}
			}
		}
		s.Step()
		for id := range s.Routers {
			r := &s.Routers[id]
			total, nonLocal := 0, 0
			for _, port := range geom.AllPorts {
				for slot := range r.In[port] {
					if r.In[port][slot].Pkt != nil {
						total++
						if port != geom.Local {
							nonLocal++
						}
					}
				}
			}
			if r.Bubble.VC.Pkt != nil {
				total++
				nonLocal++
			}
			if r.Occupied() != total {
				t.Fatalf("cycle %d router %d: occupied=%d actual=%d", cyc, id, r.Occupied(), total)
			}
			if r.OccupiedNonLocal() != nonLocal {
				t.Fatalf("cycle %d router %d: occNonLocal=%d actual=%d",
					cyc, id, r.OccupiedNonLocal(), nonLocal)
			}
		}
	}
}

func TestSwitchAllocationRoundRobinRotates(t *testing.T) {
	// Two persistent competitors for one output must alternate grants.
	topo := topology.NewMesh(3, 1)
	s := mkSim(topo, 1)
	mid := geom.NodeID(1)
	// Keep feeding packets into mid's West and Local ports, both wanting
	// East; count grants per source over time.
	var westGrants, localGrants int
	for cyc := 0; cyc < 400; cyc++ {
		r := &s.Routers[mid]
		if r.In[geom.West][0].Pkt == nil {
			p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
			p.Hop = 1
			s.PlacePacket(mid, geom.West, 0, p)
		}
		if r.In[geom.Local][0].Pkt == nil {
			p := s.NewPacket(1, 2, 0, 1, routing.Route{geom.East})
			s.PlacePacket(mid, geom.Local, 0, p)
		}
		wBefore := r.In[geom.West][0].Pkt
		lBefore := r.In[geom.Local][0].Pkt
		s.Step()
		if r.In[geom.West][0].Pkt == nil && wBefore != nil {
			westGrants++
		}
		if r.In[geom.Local][0].Pkt == nil && lBefore != nil {
			localGrants++
		}
	}
	if westGrants == 0 || localGrants == 0 {
		t.Fatalf("starvation: west=%d local=%d", westGrants, localGrants)
	}
	ratio := float64(westGrants) / float64(localGrants)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair arbitration: west=%d local=%d", westGrants, localGrants)
	}
}

func TestInFlightAccounting(t *testing.T) {
	topo := topology.NewMesh(2, 1)
	s := mkSim(topo, 1)
	s.Enqueue(s.NewPacket(0, 1, 0, 5, routing.Route{geom.East}))
	if s.InFlight() != 0 || s.QueuedPackets() != 1 {
		t.Fatal("queued packet should not count as in flight")
	}
	s.Step()
	if s.InFlight() != 1 || s.QueuedPackets() != 0 {
		t.Fatal("injected packet should count as in flight")
	}
	s.Run(30)
	if s.InFlight() != 0 {
		t.Fatal("delivered packet should leave the in-flight count")
	}
}

func TestFenceDoesNotBlockOtherOutputs(t *testing.T) {
	// A fence on East must not affect traffic leaving North.
	topo := topology.NewMesh(2, 2)
	s := mkSim(topo, 1)
	s.Routers[0].Fence = Fence{Active: true, In: geom.East, Out: geom.East, SrcID: 3}
	p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.North})
	s.Enqueue(p)
	s.Run(20)
	if p.DeliveredAt < 0 {
		t.Fatal("fence on East must not block North traffic")
	}
}

func TestBubbleHeadReadyParticipatesInSA(t *testing.T) {
	// A packet sitting in a bubble must be switched out like any VC.
	topo := topology.NewMesh(2, 1)
	s := mkSim(topo, 1)
	r := &s.Routers[0]
	r.Bubble.Present = true
	r.Bubble.InPort = geom.East
	p := s.NewPacket(0, 1, 0, 1, routing.Route{geom.East})
	s.PlaceBubblePacket(0, geom.East, p)
	s.Run(20)
	if p.DeliveredAt < 0 {
		t.Fatal("bubble occupant should be forwarded and delivered")
	}
	if r.Bubble.VC.Pkt != nil {
		t.Fatal("bubble should be empty after forwarding")
	}
}

func TestVCAtHelper(t *testing.T) {
	topo := topology.NewMesh(2, 1)
	s := mkSim(topo, 1)
	r := &s.Routers[0]
	vc := r.VCAt(geom.West, 2, 3)
	if vc != &r.In[geom.West][2*VCsPerVnet+3] {
		t.Fatal("VCAt indexes wrong slot")
	}
}

func TestRemovePacketAccounting(t *testing.T) {
	topo := topology.NewMesh(2, 1)
	s := mkSim(topo, 1)
	p := s.NewPacket(0, 1, 0, 5, routing.Route{geom.East})
	s.Enqueue(p)
	s.Run(2)
	if s.InFlight() != 1 {
		t.Fatal("setup: packet should be in flight")
	}
	// Find its VC and remove it.
	removed := false
	for id := range s.Routers {
		r := &s.Routers[id]
		for _, port := range geom.AllPorts {
			for slot := range r.In[port] {
				if r.In[port][slot].Pkt == p {
					s.RemovePacket(geom.NodeID(id), int(port)*SlotsPerPort+slot)
					removed = true
				}
			}
		}
	}
	if !removed {
		t.Fatal("packet not found in any VC")
	}
	if s.InFlight() != 0 || s.Stats.Lost != 1 {
		t.Fatalf("accounting after removal: inflight=%d lost=%d", s.InFlight(), s.Stats.Lost)
	}
	for id := range s.Routers {
		if s.Routers[id].Occupied() != 0 {
			t.Fatal("occupancy not cleared")
		}
	}
	// Removing an empty VC is a no-op.
	s.RemovePacket(0, int(geom.Local)*SlotsPerPort)
	if s.Stats.Lost != 1 {
		t.Fatal("no-op removal changed Lost")
	}
}

func TestGrantsCounterAdvances(t *testing.T) {
	topo := topology.NewMesh(3, 1)
	s := mkSim(topo, 1)
	s.Enqueue(s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East}))
	s.Run(30)
	if s.Routers[0].Grants() == 0 || s.Routers[1].Grants() == 0 || s.Routers[2].Grants() == 0 {
		t.Fatalf("grants = %d,%d,%d; every router on the path should have granted",
			s.Routers[0].Grants(), s.Routers[1].Grants(), s.Routers[2].Grants())
	}
}

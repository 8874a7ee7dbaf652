package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Property suite: whatever traffic is thrown at the simulator, the
// conservation and occupancy invariants hold at every step, and XY
// workloads always drain (testing/quick drives the workload shape).

// fullScan advances s one cycle the way the refmodel does — every phase
// at every router — as the in-package reference for Step's visit set.
func fullScan(s *Sim) {
	for _, f := range s.PreCycle {
		f(s)
	}
	for id := range s.Routers {
		s.InjectNode(geom.NodeID(id))
	}
	for id := range s.Routers {
		s.AllocateNode(geom.NodeID(id))
	}
	for id := range s.Routers {
		s.TransferBubbleNode(geom.NodeID(id))
	}
	for _, f := range s.PostCycle {
		f(s)
	}
	s.Now++
	s.ExpireTimers()
}

// TestPropDenseSparseEquivalence is the in-package half of the
// byte-identity contract (the refmodel differential harness is the
// other): for arbitrary seeds — random irregular topology shape, fault
// kind and count, and offered rates from sparse (a few routers active)
// to dense (the whole fabric active, past saturation) — the active-set
// sweep with its fused allocation pass and the full scan with the
// gather-then-commit allocator must agree on Stats, occupancy and
// progress after every cycle, and the active summary must cover every
// router holding or queueing a packet.
func TestPropDenseSparseEquivalence(t *testing.T) {
	f := func(seed int64, rateRaw uint8) bool {
		hrng := rand.New(rand.NewSource(seed))
		w, h := 4+hrng.Intn(4), 4+hrng.Intn(4)
		kind := topology.LinkFaults
		if hrng.Intn(3) == 0 {
			kind = topology.RouterFaults
		}
		faults := hrng.Intn(1 + w*h/5)
		topoSeed := hrng.Int63()
		simSeed := hrng.Int63()
		mk := func() *Sim {
			return New(topology.RandomIrregular(w, h, kind, faults, topoSeed),
				Config{}, rand.New(rand.NewSource(simSeed)))
		}
		scan, swept := mk(), mk()
		units := []*Sim{scan, swept}
		min := routing.NewMinimal(scan.Topo)
		alive := scan.Topo.AliveRouters()
		if len(alive) < 2 {
			return true
		}
		rate := 0.05 + float64(rateRaw%35)/100
		rng := rand.New(rand.NewSource(seed + 9))
		const cycles = 600
		for c := 0; c < cycles; c++ {
			if c < cycles*2/3 {
				for _, src := range alive {
					if rng.Float64() >= rate {
						continue
					}
					dst := alive[rng.Intn(len(alive))]
					if dst == src {
						continue
					}
					r, ok := min.Route(src, dst, rng)
					if !ok {
						for _, u := range units {
							u.Drop()
						}
						continue
					}
					ln := 1 + 4*rng.Intn(2)
					vnet := rng.Intn(NumVnets)
					for _, u := range units {
						u.Enqueue(u.NewPacket(src, dst, vnet, ln, r))
					}
				}
			}
			fullScan(scan)
			swept.Step()
			if swept.Stats != scan.Stats || swept.InFlight() != scan.InFlight() ||
				swept.QueuedPackets() != scan.QueuedPackets() || swept.LastProgress != scan.LastProgress {
				return false
			}
			for id := range swept.Routers {
				if (swept.occ[id] != 0 || swept.niPend[id] != 0) && !swept.ActiveMarked(geom.NodeID(id)) {
					t.Logf("cycle %d: router %d busy but not in the active summary", c, id)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropConservationUnderArbitraryWorkloads(t *testing.T) {
	f := func(seed int64, rateRaw, lenSel uint8, cyclesRaw uint16) bool {
		topo := topology.NewMesh(4, 4)
		s := New(topo, Config{}, rand.New(rand.NewSource(seed)))
		xy := routing.NewXY(topo)
		rng := rand.New(rand.NewSource(seed + 1))
		rate := float64(rateRaw%40) / 100
		cycles := int(cyclesRaw%1500) + 200
		offered := int64(0)
		for c := 0; c < cycles; c++ {
			if c < cycles/2 {
				for n := 0; n < 16; n++ {
					if rng.Float64() >= rate {
						continue
					}
					dst := geom.NodeID(rng.Intn(16))
					r, ok := xy.Route(geom.NodeID(n), dst, nil)
					if !ok {
						return false
					}
					ln := 1
					if (lenSel+uint8(n))%2 == 0 {
						ln = 5
					}
					s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), ln, r))
					offered++
				}
			}
			s.Step()
			if s.Stats.Delivered+s.InFlight()+s.QueuedPackets() != offered {
				return false
			}
		}
		// XY on a healthy mesh is deadlock-free: drain completely.
		for i := 0; i < 40000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
			s.Run(100)
		}
		return s.Stats.Delivered == offered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropLatencyFormulaHolds(t *testing.T) {
	// For a lone packet: latency = (router+link)×hops + len + router.
	f := func(hopsRaw, lenRaw uint8) bool {
		hops := int(hopsRaw%7) + 1
		ln := int(lenRaw%VCDepth) + 1
		const rLat, lLat = RouterLatency, LinkLatency
		topo := topology.NewMesh(8, 1)
		s := New(topo, Config{}, rand.New(rand.NewSource(1)))
		route := make(routing.Route, hops)
		for i := range route {
			route[i] = geom.East
		}
		p := s.NewPacket(0, geom.NodeID(hops), 0, ln, route)
		s.Enqueue(p)
		s.Run((rLat+lLat)*(hops+2) + ln + 20)
		if p.DeliveredAt < 0 {
			return false
		}
		// injection pipeline (rLat) + hops x (rLat+lLat) + ejection
		// pipeline (rLat) + serialization (ln-1)
		want := int64((rLat+lLat)*hops + 2*rLat + ln - 1)
		return p.Latency() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

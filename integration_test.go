package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

// Cross-subsystem integration tests: the scheme plugins, reconfiguration
// and validation must compose on one simulator.

func TestSBBoundaryStreamDrains(t *testing.T) {
	// Static Bubble recovery under a stream along the boundary ring
	// (vnet 0) plus uniform minimal traffic near saturation (vnets 1-2) on
	// a 6x6 mesh with four interior link faults: the ring stream closes
	// dependency cycles around the boundary again and again, so SB
	// recovers many times on a hand-built topology. The run must drain
	// with the invariants intact, and its Stats are pinned.
	want := network.Stats{Offered: 18489, Injected: 18489, Delivered: 18489,
		InjectedFlits: 62609, DeliveredFlits: 62609, SumLatency: 407034979,
		SumNetLatency: 38814515, MaxLatency: 43739, HopMoves: 81064,
		LinkCycles: [network.NumLinkClasses]int64{282072, 329357, 6753, 20123, 1838},
		ProbesSent: 7753, DisablesSent: 1214, EnablesSent: 1250, CheckProbesSent: 234,
		ProbesReturned: 1214, DeadlockRecoveries: 183, BubbleOccupancies: 232, BubbleTransfers: 49}
	topo := topology.NewMesh(6, 6)
	at := func(x, y int) geom.NodeID { return topo.ID(geom.Coord{X: x, Y: y}) }
	topo.DisableLink(at(1, 2), geom.East)
	topo.DisableLink(at(2, 3), geom.North)
	topo.DisableLink(at(3, 1), geom.North)
	topo.DisableLink(at(3, 3), geom.East)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(s, core.Options{TDD: 24})
	// The clockwise boundary walk: ringDirs[i] leads from ringNodes[i] to
	// the next node, east along the bottom row, north up the right
	// column, west along the top and south down the left.
	var ringNodes []geom.NodeID
	var ringDirs []geom.Direction
	n := at(0, 0)
	for _, d := range []geom.Direction{geom.East, geom.North, geom.West, geom.South} {
		for k := 0; k < 5; k++ {
			ringNodes, ringDirs = append(ringNodes, n), append(ringDirs, d)
			n = topo.Neighbor(n, d)
		}
	}
	min := routing.NewMinimal(topo)
	alive := topo.AliveRouters()
	urng, rrng := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(3))
	for c := 0; c < 3500; c++ {
		for _, src := range alive {
			if urng.Float64() >= 0.122 {
				continue
			}
			dst := alive[urng.Intn(len(alive))]
			if dst == src {
				continue
			}
			if r, ok := min.Route(src, dst, urng); ok {
				s.Enqueue(s.NewPacket(src, dst, 1+urng.Intn(2), 1+4*urng.Intn(2), r))
			}
		}
		for i, src := range ringNodes {
			if rrng.Float64() >= 0.05 {
				continue
			}
			var r routing.Route
			dst := src
			for k := 1 + rrng.Intn(len(ringNodes)/2); k > 0; k-- {
				d := ringDirs[(i+len(r))%len(ringDirs)]
				r = append(r, d)
				dst = topo.Neighbor(dst, d)
			}
			s.Enqueue(s.NewPacket(src, dst, 0, 5, r))
		}
		s.Step()
	}
	for i := 0; i < 100000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
		s.Run(100)
	}
	if s.InFlight()+s.QueuedPackets() != 0 {
		t.Fatalf("SB failed to drain (inflight %d)", s.InFlight())
	}
	if vs := validate.Check(s, ctrl); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("vacuous: SB never recovered")
	}
	if s.Stats != want {
		t.Fatalf("stats\n got %+v\nwant %+v", s.Stats, want)
	}
}

func TestEscapeSchemeWithReconfig(t *testing.T) {
	// The escape-VC baseline must survive runtime link failures handled
	// by the reconfiguration manager (escaped packets reroute over the
	// tree; regular packets get repaired minimal routes).
	topo := topology.NewMesh(6, 6)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
	ud := routing.NewUpDown(topo)
	escape.Attach(s, ud, escape.Options{Timeout: 30})
	mgr := reconfig.New(s)
	rng := rand.New(rand.NewSource(4))
	alive := topo.AliveRouters()
	offered := int64(0)
	for c := 0; c < 4000; c++ {
		if c == 1500 {
			// Fail a central link mid-run. NOTE: the up/down tree is
			// rebuilt implicitly by escaped packets' TreeNextHop only if
			// the tree edges survive; fail a non-tree link to stay within
			// the escape scheme's reconfiguration assumptions.
			target := topo.ID(geom.Coord{X: 4, Y: 4})
			for _, d := range geom.LinkDirs {
				nb := topo.Neighbor(target, d)
				if nb != geom.InvalidNode && ud.Parent(target) != nb && ud.Parent(nb) != target {
					mgr.FailLink(target, d)
					break
				}
			}
		}
		if c < 3000 {
			for _, src := range alive {
				if rng.Float64() >= 0.04 {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				if dst == src {
					continue
				}
				if r, ok := mgr.Route(src, dst); ok {
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, r))
					offered++
				}
			}
		}
		s.Step()
	}
	for i := 0; i < 100000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
		s.Run(100)
	}
	if got := s.Stats.Delivered + s.Stats.Lost; got != offered {
		t.Fatalf("accounting: delivered+lost %d != offered %d", got, offered)
	}
	if s.InFlight()+s.QueuedPackets() != 0 {
		t.Fatal("escape scheme failed to drain after reconfiguration")
	}
}

func TestSBWithReconfigAndValidationSoak(t *testing.T) {
	// Long soak combining everything: SB recovery, progressive gating,
	// abrupt failures, per-phase invariant validation, and a final exact
	// deadlock check.
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	ctrl := core.Attach(s, core.Options{TDD: 24})
	mgr := reconfig.New(s)
	rng := rand.New(rand.NewSource(6))

	phase := func(cycles int, rate float64) {
		alive := topo.AliveRouters()
		for c := 0; c < cycles; c++ {
			for _, src := range alive {
				if !topo.RouterAlive(src) || rng.Float64() >= rate {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				if dst == src || !topo.RouterAlive(dst) {
					continue
				}
				if r, ok := mgr.Route(src, dst); ok {
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 1+4*rng.Intn(2), r))
				}
			}
			s.Step()
			mgr.TryCompleteGates()
		}
		if vs := validate.Check(s, ctrl); len(vs) != 0 {
			t.Fatalf("invariants violated mid-soak: %v", vs)
		}
	}

	phase(1500, 0.06)
	mgr.FailLink(topo.ID(geom.Coord{X: 3, Y: 3}), geom.East)
	phase(1500, 0.06)
	if err := mgr.RequestGate(topo.ID(geom.Coord{X: 6, Y: 2})); err != nil {
		t.Fatal(err)
	}
	phase(1500, 0.06)
	mgr.FailRouter(topo.ID(geom.Coord{X: 2, Y: 5}))
	phase(1500, 0.06)

	for i := 0; i < 150000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
		s.Run(100)
		mgr.TryCompleteGates()
	}
	if s.InFlight()+s.QueuedPackets() != 0 {
		t.Fatalf("soak failed to drain: %d in flight, %d queued (blocked %d)",
			s.InFlight(), s.QueuedPackets(), len(deadlock.Analyze(s)))
	}
	if vs := validate.Check(s, ctrl); len(vs) != 0 {
		t.Fatalf("final invariants violated: %v", vs)
	}
	if !core.VerifyCoverage(topo) {
		t.Fatal("coverage must survive arbitrary reconfiguration")
	}
}

func TestThreeSchemesSameWorkloadAgreeOnDelivery(t *testing.T) {
	// All three schemes must deliver the identical packet population of a
	// light workload on the same irregular topology (they differ only in
	// latency/energy, never in correctness).
	topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 8, 11)
	min := routing.NewMinimal(topo)
	build := func(which int) *network.Sim {
		s := network.New(topo.Clone(), network.Config{}, rand.New(rand.NewSource(7)))
		switch which {
		case 0:
			core.Attach(s, core.Options{TDD: 24})
		case 1:
			escape.Attach(s, routing.NewUpDown(topo), escape.Options{Timeout: 24})
		}
		return s
	}
	var delivered [3]int64
	for which := 0; which < 3; which++ {
		s := build(which)
		rng := rand.New(rand.NewSource(8))
		offered := int64(0)
		for c := 0; c < 3000; c++ {
			if c < 2000 {
				for n := 0; n < 36; n++ {
					src := geom.NodeID(n)
					if !topo.RouterAlive(src) || rng.Float64() >= 0.03 {
						continue
					}
					dst := geom.NodeID(rng.Intn(36))
					if r, ok := min.Route(src, dst, rng); ok {
						s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, r))
						offered++
					}
				}
			}
			s.Step()
		}
		s.Run(30000)
		if s.Stats.Delivered != offered {
			t.Fatalf("scheme %d delivered %d of %d", which, s.Stats.Delivered, offered)
		}
		delivered[which] = s.Stats.Delivered
	}
	if delivered[0] != delivered[1] || delivered[1] != delivered[2] {
		t.Fatalf("delivery disagreement: %v", delivered)
	}
}

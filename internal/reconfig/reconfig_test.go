package reconfig

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func mkLiveSim(t *testing.T, seed int64) (*network.Sim, *Manager) {
	t.Helper()
	topo := topology.NewMesh(6, 6)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
	core.Attach(s, core.Options{})
	return s, New(s)
}

// drive injects uniform traffic through the manager's route computation
// for the given cycles.
func drive(s *network.Sim, m *Manager, rng *rand.Rand, cycles int, rate float64) {
	alive := s.Topo.AliveRouters()
	for c := 0; c < cycles; c++ {
		for _, src := range alive {
			if !s.Topo.RouterAlive(src) || rng.Float64() >= rate {
				continue
			}
			dst := alive[rng.Intn(len(alive))]
			if dst == src {
				continue
			}
			if r, ok := m.Route(src, dst); ok {
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, r))
			} else {
				s.Drop()
			}
		}
		s.Step()
		m.Tick()
	}
}

func conserve(t *testing.T, s *network.Sim) {
	t.Helper()
	total := s.Stats.Delivered + s.InFlight() + s.QueuedPackets() + s.Stats.Lost
	if total != s.Stats.Offered {
		t.Fatalf("conservation violated: %d accounted vs %d offered (lost %d)",
			total, s.Stats.Offered, s.Stats.Lost)
	}
}

func TestGracefulGateDrainsFirst(t *testing.T) {
	s, m := mkLiveSim(t, 1)
	rng := rand.New(rand.NewSource(2))
	drive(s, m, rng, 500, 0.05)
	victim := s.Topo.ID(geom.Coord{X: 3, Y: 3})
	if _, err := m.Submit(Event{Kind: EvGate, Node: victim}); err != nil {
		t.Fatal(err)
	}
	// Keep traffic flowing; the gate must complete without killing any
	// packet.
	lostBefore := s.Stats.Lost
	for i := 0; i < 4000 && m.PendingGates() > 0; i++ {
		drive(s, m, rng, 1, 0.05)
	}
	if m.PendingGates() != 0 {
		t.Fatal("gate never completed")
	}
	if s.Topo.RouterAlive(victim) {
		t.Fatal("victim still alive after gating")
	}
	if s.Stats.Lost != lostBefore {
		t.Fatal("graceful gating must not lose packets")
	}
	// Traffic continues on the irregular topology; drain fully.
	drive(s, m, rng, 500, 0.05)
	for i := 0; i < 30000 && s.InFlight()+s.QueuedPackets() > 0; i += 50 {
		s.Run(50)
	}
	conserve(t, s)
	if s.InFlight()+s.QueuedPackets() != 0 {
		t.Fatal("network did not drain after gating")
	}
}

func TestGateRejectsDeadRouter(t *testing.T) {
	s, m := mkLiveSim(t, 3)
	victim := geom.NodeID(7)
	s.Topo.DisableRouter(victim)
	if _, err := m.Submit(Event{Kind: EvGate, Node: victim}); err == nil {
		t.Fatal("gating a dead router should error")
	}
}

func TestUngateRestores(t *testing.T) {
	s, m := mkLiveSim(t, 4)
	victim := s.Topo.ID(geom.Coord{X: 2, Y: 2})
	if _, err := m.Submit(Event{Kind: EvGate, Node: victim}); err != nil {
		t.Fatal(err)
	}
	m.Tick() // idle network: gates immediately
	if s.Topo.RouterAlive(victim) {
		t.Fatal("gate should complete on an idle network")
	}
	m.Submit(Event{Kind: EvRecoverRouter, Node: victim})
	if !s.Topo.RouterAlive(victim) {
		t.Fatal("ungate failed")
	}
	if _, ok := m.Route(victim, 0); !ok {
		t.Fatal("routes through the restored router should exist")
	}
}

func TestRouteAvoidsPendingGates(t *testing.T) {
	s, m := mkLiveSim(t, 5)
	// Gate the whole middle column except one node: routes from west to
	// east must avoid pending routers.
	var gated []geom.NodeID
	for y := 0; y < 5; y++ {
		n := s.Topo.ID(geom.Coord{X: 3, Y: y})
		if _, err := m.Submit(Event{Kind: EvGate, Node: n}); err != nil {
			t.Fatal(err)
		}
		gated = append(gated, n)
	}
	src := s.Topo.ID(geom.Coord{X: 0, Y: 2})
	dst := s.Topo.ID(geom.Coord{X: 5, Y: 2})
	r, ok := m.Route(src, dst)
	if !ok {
		t.Fatal("a detour through (3,5) must exist")
	}
	cur := src
	for _, d := range r {
		cur = s.Topo.Neighbor(cur, d)
		for _, g := range gated {
			if cur == g {
				t.Fatalf("route %v passes pending-gate router %v", r, g)
			}
		}
	}
}

func TestFailLinkReroutesInFlight(t *testing.T) {
	topo := topology.NewMesh(4, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(6)))
	m := New(s)
	// A packet headed 0→3 along the line; kill link 2-3 while it is in
	// flight. It must be rerouted... no detour exists on a line, so it is
	// dropped. Use a 4x2 mesh instead for a detour.
	topo2 := topology.NewMesh(4, 2)
	s2 := network.New(topo2, network.Config{}, rand.New(rand.NewSource(6)))
	m2 := New(s2)
	r, _ := m2.Route(0, 3)
	p := s2.NewPacket(0, 3, 0, 5, r)
	s2.Enqueue(p)
	s2.Run(4) // in flight now
	m2.Submit(Event{Kind: EvFailLink, Node: 2, Dir: geom.East})
	s2.Run(60)
	if p.DeliveredAt < 0 {
		t.Fatalf("packet should be rerouted around the dead link (rerouted=%d)", m2.Rerouted)
	}
	conserve(t, s2)
	_ = m
	_ = s
}

func TestFailLinkRepairsEscapedPacketPastItsRoute(t *testing.T) {
	// An escaped packet follows the escape tree and may have taken more
	// hops than its source route holds. A repair pass must treat its
	// remaining route as empty — not index past the end — and hand it a
	// fresh route from where it stands.
	topo := topology.NewMesh(4, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	m := New(s)
	p := s.NewPacket(0, 3, 0, 1, routing.Route{geom.East})
	p.Escaped = true
	p.Hop = 2 // two tree hops beyond a one-hop route
	s.PlacePacket(1, geom.West, 1, p)
	m.Submit(Event{Kind: EvFailLink, Node: 2, Dir: geom.East})
	if m.Rerouted != 1 || p.Hop != 0 {
		t.Fatalf("rerouted %d packets, hop %d; want the packet re-homed at hop 0", m.Rerouted, p.Hop)
	}
	s.Run(60)
	if p.DeliveredAt < 0 {
		t.Fatal("repaired packet not delivered")
	}
	conserve(t, s)
}

func TestFailLinkDropsWhenDisconnected(t *testing.T) {
	topo := topology.NewMesh(4, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	m := New(s)
	r, _ := m.Route(0, 3)
	p := s.NewPacket(0, 3, 0, 5, r)
	s.Enqueue(p)
	s.Run(4)
	m.Submit(Event{Kind: EvFailLink, Node: 2, Dir: geom.East}) // no detour on a line
	if m.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", m.Dropped)
	}
	conserve(t, s)
	if s.InFlight() != 0 {
		t.Fatal("dropped packet still counted in flight")
	}
}

func TestFailRouterLosesResidentTraffic(t *testing.T) {
	topo := topology.NewMesh(3, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(8)))
	m := New(s)
	r, _ := m.Route(0, 2)
	p := s.NewPacket(0, 2, 0, 5, r)
	s.Enqueue(p)
	s.Run(2) // p now buffered at router 1 (granted at cycle 1, leaves at 3)
	if s.Routers[1].Occupied() == 0 {
		t.Fatal("test setup: packet should be at router 1")
	}
	m.Submit(Event{Kind: EvFailRouter, Node: 1})
	if m.Dropped == 0 {
		t.Fatal("resident packet must be lost with the router")
	}
	conserve(t, s)
	if s.Topo.RouterAlive(1) {
		t.Fatal("router should be dead")
	}
}

func TestFailLinkReroutesQueuedPackets(t *testing.T) {
	topo := topology.NewMesh(4, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(9)))
	m := New(s)
	// Queue many packets 0→3 (the NI will inject them slowly).
	var pkts []*network.Packet
	for i := 0; i < 30; i++ {
		r, _ := m.Route(0, 3)
		p := s.NewPacket(0, 3, 0, 5, r)
		s.Enqueue(p)
		pkts = append(pkts, p)
	}
	m.Submit(Event{Kind: EvFailLink, Node: 1, Dir: geom.East}) // many queued routes crossed it
	if m.Rerouted == 0 {
		t.Fatal("queued packets should have been rerouted")
	}
	s.Run(1500)
	for i, p := range pkts {
		if p.DeliveredAt < 0 {
			t.Fatalf("packet %d not delivered after reroute", i)
		}
	}
	conserve(t, s)
}

func TestReconfigUnderLiveTrafficWithRecovery(t *testing.T) {
	// Soak: gates and failures interleaved with live traffic and SB
	// recovery; conservation and drain must hold throughout.
	s, m := mkLiveSim(t, 10)
	rng := rand.New(rand.NewSource(11))
	drive(s, m, rng, 400, 0.08)
	m.Submit(Event{Kind: EvFailLink, Node: s.Topo.ID(geom.Coord{X: 2, Y: 2}), Dir: geom.East})
	drive(s, m, rng, 400, 0.08)
	if _, err := m.Submit(Event{Kind: EvGate, Node: s.Topo.ID(geom.Coord{X: 4, Y: 4})}); err != nil {
		t.Fatal(err)
	}
	drive(s, m, rng, 800, 0.08)
	m.Submit(Event{Kind: EvFailRouter, Node: s.Topo.ID(geom.Coord{X: 1, Y: 4})})
	drive(s, m, rng, 400, 0.08)
	conserve(t, s)
	// Drain.
	for i := 0; i < 60000 && s.InFlight()+s.QueuedPackets() > 0; i += 50 {
		s.Run(50)
		m.Tick()
	}
	if s.InFlight()+s.QueuedPackets() != 0 {
		t.Fatalf("drain incomplete: %d in flight, %d queued", s.InFlight(), s.QueuedPackets())
	}
	conserve(t, s)
	if !core.VerifyCoverage(s.Topo) {
		t.Fatal("coverage must hold on the post-reconfiguration topology")
	}
}

func TestManagerWorksWithTrafficInjector(t *testing.T) {
	// The manager coexists with the traffic package when routes come from
	// the manager-owned tables. The injector routes through the manager's
	// AppendRoute; the pinned Stats are those of the Route path it
	// replaced, so the two draw the same routes.
	s, m := mkLiveSim(t, 12)
	alive := s.Topo.AliveRouters()
	inj := traffic.NewInjector(alive, m.Algorithm(), traffic.NewUniformRandom(alive), 0.05,
		rand.New(rand.NewSource(13)))
	for c := 0; c < 1000; c++ {
		inj.Tick(s)
		s.Step()
	}
	want := network.Stats{Offered: 573, Injected: 573, Delivered: 561, InjectedFlits: 1713, DeliveredFlits: 1673,
		SumLatency: 6957, SumNetLatency: 6957, MaxLatency: 28, HopMoves: 2271, LinkCycles: [network.NumLinkClasses]int64{6651}}
	if s.Stats != want {
		t.Fatalf("Stats %+v, want %+v", s.Stats, want)
	}
}

// TestManagerAppendRouteMatchesRoute: the algorithm adapter's AppendRoute
// and Manager.Route take the same draws from the simulator's rng and the
// same pending-gate detours (a same-row pair across the gated routers
// has only the straight minimal path, so detours occur). With no gate
// pending, AppendRoute into a large enough buffer allocates nothing and
// Route allocates its result once.
func TestManagerAppendRouteMatchesRoute(t *testing.T) {
	sa, ma := mkLiveSim(t, 21)
	sb, mb := mkLiveSim(t, 21)
	for _, m := range []*Manager{ma, mb} {
		for _, n := range []geom.NodeID{14, 15} {
			if _, err := m.Submit(Event{Kind: EvGate, Node: n}); err != nil {
				t.Fatal(err)
			}
		}
	}
	alg := ma.Algorithm()
	var buf routing.Route
	n := sa.Topo.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := geom.NodeID(s), geom.NodeID(d)
			want, okB := mb.Route(src, dst)
			var okA bool
			buf, okA = routing.AppendRoute(alg, buf[:0], src, dst, nil)
			if okA != okB || !slices.Equal(buf, want) {
				t.Fatalf("%v→%v: AppendRoute %v/%v, Route %v/%v", src, dst, buf, okA, want, okB)
			}
		}
	}
	if sa.Rng.Int63() != sb.Rng.Int63() {
		t.Fatal("the two paths drew differently from the simulator's rng")
	}

	_, m := mkLiveSim(t, 22)
	alg = m.Algorithm()
	buf = make(routing.Route, 0, 16)
	if a := testing.AllocsPerRun(100, func() { buf, _ = routing.AppendRoute(alg, buf[:0], 0, 35, nil) }); a != 0 {
		t.Fatalf("AppendRoute allocated %v times per route, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.Route(0, 35) }); a != 1 {
		t.Fatalf("Route allocated %v times per route, want 1", a)
	}
}

// TestRouteMatchesAppendRoute pins Route to the table's own sampling:
// with no gate pending, the route it returns for every pair is the one
// Minimal.AppendRoute samples from the same rng state, in a slice of
// exactly its length, and it consumes exactly the draws AppendRoute
// does — the next draw of Sim.Rng matches a twin stream's.
func TestRouteMatchesAppendRoute(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.RandomIrregular(8, 8, topology.LinkFaults, 12, 7),
		topology.NewMesh(32, 32),
	} {
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
		m := New(s)
		tab, twin := routing.NewMinimal(topo), rand.New(rand.NewSource(3))
		n := geom.NodeID(topo.NumNodes())
		for src := geom.NodeID(0); src < n; src++ {
			for dst := geom.NodeID(0); dst < n; dst++ {
				got, ok := m.Route(src, dst)
				want, wantOK := tab.AppendRoute(nil, src, dst, twin)
				if ok != wantOK || !slices.Equal(got, want) || (ok && cap(got) != len(got)) {
					t.Fatalf("%dx%d %v->%v: Route %v (ok %v, cap %d), AppendRoute %v (ok %v)",
						topo.Width(), topo.Height(), src, dst, got, ok, cap(got), want, wantOK)
				}
				if a, b := s.Rng.Int63(), twin.Int63(); a != b {
					t.Fatalf("%v->%v: next draw %d, twin's %d", src, dst, a, b)
				}
			}
		}
	}
}

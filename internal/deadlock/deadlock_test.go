package deadlock

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// primeRing wedges a 2x2 mesh with clockwise 2-hop streams.
func primeRing(s *network.Sim, perNode int) {
	hops := map[geom.NodeID]geom.Direction{0: geom.North, 2: geom.East, 3: geom.South, 1: geom.West}
	for _, n := range []geom.NodeID{0, 2, 3, 1} {
		d1 := hops[n]
		mid := s.Topo.Neighbor(n, d1)
		d2 := hops[mid]
		dst := s.Topo.Neighbor(mid, d2)
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(n, dst, 0, 5, routing.Route{d1, d2}))
		}
	}
}

func TestAnalyzeCleanNetwork(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	if IsDeadlocked(s) {
		t.Fatal("empty network cannot be deadlocked")
	}
	xy := routing.NewXY(topo)
	r, _ := xy.Route(0, 15, nil)
	s.Enqueue(s.NewPacket(0, 15, 0, 5, r))
	s.Run(3)
	if IsDeadlocked(s) {
		t.Fatal("a single moving packet is never deadlocked")
	}
}

func TestAnalyzeDetectsRingDeadlock(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	primeRing(s, 12)
	s.Run(1500)
	blocked := Analyze(s)
	if len(blocked) == 0 {
		t.Fatal("ring workload should produce blocked packets")
	}
	// Every blocked packet wants a link, not ejection.
	for _, b := range blocked {
		if !b.Wants.IsLink() {
			t.Fatalf("blocked packet %v wants %v", b.Pkt, b.Wants)
		}
	}
	if !IsDeadlocked(s) {
		t.Fatal("IsDeadlocked should agree")
	}
}

func TestAnalyzeAgreesWithOperationalWatcher(t *testing.T) {
	// Across random scenarios the exact analyzer and the operational
	// watcher must agree: if the watcher declares a deadlock (long
	// no-progress with packets in flight), the analyzer must find blocked
	// packets; when the analyzer says all drainable and injection stopped,
	// the network eventually drains.
	for seed := int64(0); seed < 6; seed++ {
		topo := topology.RandomIrregular(5, 5, topology.LinkFaults, 6, seed)
		min := routing.NewMinimal(topo)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 50))
		for cyc := 0; cyc < 3000; cyc++ {
			if cyc < 1500 {
				for n := 0; n < 25; n++ {
					if !topo.RouterAlive(geom.NodeID(n)) {
						continue
					}
					if rng.Float64() < 0.25 {
						dst := geom.NodeID(rng.Intn(25))
						if r, ok := min.Route(geom.NodeID(n), dst, rng); ok {
							s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 5, r))
						}
					}
				}
			}
			s.Step()
		}
		w := Watcher{Horizon: 1000}
		if w.Deadlocked(s) && !IsDeadlocked(s) {
			t.Fatalf("seed %d: watcher says deadlocked but analyzer disagrees", seed)
		}
		if !IsDeadlocked(s) && s.InFlight() > 0 {
			// All drainable: continue without injection and require full
			// drain.
			s.Run(30000)
			if s.InFlight() > 0 && IsDeadlocked(s) {
				t.Fatalf("seed %d: drainable verdict was wrong", seed)
			}
		}
	}
}

func TestWatcherDefaults(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	w := Watcher{}
	if w.Deadlocked(s) {
		t.Fatal("empty network cannot be operationally deadlocked")
	}
	primeRing(s, 12)
	s.Run(1500)
	if !w.Deadlocked(s) {
		t.Fatal("watcher should flag the wedged ring with default horizon")
	}
}

func TestAnalyzeSeesBubbleEscapeRoute(t *testing.T) {
	// An active empty bubble on the right port makes the upstream packet
	// drainable.
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	primeRing(s, 12)
	s.Run(1500)
	if !IsDeadlocked(s) {
		t.Fatal("precondition: wedged")
	}
	// Activate a bubble at node 3 (the SB router of a 2x2 placement) on
	// the port the ring enters through. Find a blocked packet wanting into
	// node 3.
	var in geom.Direction = geom.Invalid
	for _, b := range Analyze(s) {
		if s.Topo.Neighbor(b.Router, b.Wants) == 3 {
			in = b.Wants.Opposite()
			break
		}
	}
	if in == geom.Invalid {
		t.Fatal("no blocked packet heading into node 3")
	}
	s.Routers[3].Bubble.Present = true
	s.Routers[3].Bubble.Active = true
	s.Routers[3].Bubble.InPort = in
	if !IsDeadlocked(s) {
		// The whole ring should now be drainable through the bubble.
		return
	}
	// At minimum, strictly fewer packets must be blocked.
	t.Log("bubble did not fully unblock; checking partial effect")
	s.Routers[3].Bubble.Active = false
	before := len(Analyze(s))
	s.Routers[3].Bubble.Active = true
	after := len(Analyze(s))
	if after >= before {
		t.Fatalf("bubble had no effect on drainability (%d vs %d)", after, before)
	}
}

func TestAnalyzerMatchesRecoveryOutcome(t *testing.T) {
	// With SB attached, a wedged state detected by the analyzer must be
	// resolved by recovery (drains fully afterwards).
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{TDD: 20})
	primeRing(s, 12)
	deadlockObserved := false
	for i := 0; i < 200; i++ {
		s.Run(100)
		if IsDeadlocked(s) {
			deadlockObserved = true
		}
		if s.InFlight()+s.QueuedPackets() == 0 {
			break
		}
	}
	if !deadlockObserved {
		t.Fatal("expected the analyzer to observe a transient deadlock")
	}
	if s.InFlight()+s.QueuedPackets() != 0 {
		t.Fatal("recovery failed to drain the observed deadlock")
	}
}

func TestBlockedPacketOnDeadLink(t *testing.T) {
	// A packet whose route crosses a link that died after injection is
	// permanently blocked; the analyzer must report it.
	topo := topology.NewMesh(3, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	s.Enqueue(s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East}))
	s.Run(3) // packet now at node 1
	topo.DisableLink(1, geom.East)
	s.Run(5)
	blocked := Analyze(s)
	if len(blocked) != 1 {
		t.Fatalf("blocked = %d packets, want 1", len(blocked))
	}
	if blocked[0].Router != 1 || blocked[0].Wants != geom.East {
		t.Fatalf("unexpected blocked packet: %+v", blocked[0])
	}
}

// TestDrainWedged: a ring wedge whose Static Bubble detection is off
// never delivers or recovers again (wedged), while a healthy 4x4 drains
// its packets (not wedged).
func TestDrainWedged(t *testing.T) {
	s := network.New(topology.NewMesh(2, 2), network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{TDD: 1 << 40}) // detection effectively off
	primeRing(s, 12)
	s.Run(1500)
	if !DrainWedged(s) {
		t.Fatal("a ring deadlock with detection off must read as wedged")
	}

	topo := topology.NewMesh(4, 4)
	s = network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	xy := routing.NewXY(topo)
	for src := geom.NodeID(0); src < 16; src++ {
		r, _ := xy.Route(src, 15-src, nil)
		s.Enqueue(s.NewPacket(src, 15-src, 0, 5, r))
	}
	if DrainWedged(s) || s.InFlight() != 0 || s.QueuedPackets() != 0 {
		t.Fatal("a healthy mesh must drain, not wedge")
	}
}

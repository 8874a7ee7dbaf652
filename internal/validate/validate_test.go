package validate

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestCleanSimPasses(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(s, core.Options{})
	if vs := Check(s, ctrl); len(vs) != 0 {
		t.Fatalf("violations on a clean sim: %v", vs)
	}
	Must(s, ctrl) // must not panic
}

func TestBusySimPassesEveryCycle(t *testing.T) {
	topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 8, 3)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	ctrl := core.Attach(s, core.Options{TDD: 24})
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(4))
	for cyc := 0; cyc < 2500; cyc++ {
		if cyc < 1800 {
			for n := 0; n < 36; n++ {
				if topo.RouterAlive(geom.NodeID(n)) && rng.Float64() < 0.08 {
					dst := geom.NodeID(rng.Intn(36))
					if r, ok := min.Route(geom.NodeID(n), dst, rng); ok {
						s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 5, r))
					} else {
						s.Drop()
					}
				}
			}
		}
		s.Step()
		if cyc%100 == 99 {
			if vs := Check(s, ctrl); len(vs) != 0 {
				t.Fatalf("cycle %d: %v", cyc, vs)
			}
		}
	}
}

func TestDetectsStaleFence(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	ctrl := core.Attach(s, core.Options{})
	s.Routers[2].Fence = network.Fence{Active: true, In: geom.West, Out: geom.East, SrcID: 5}
	vs := Check(s, ctrl)
	if len(vs) == 0 {
		t.Fatal("stale fence not detected")
	}
	if vs[0].Invariant != "fence" {
		t.Fatalf("violation = %v", vs[0])
	}
}

func TestDetectsOrphanBubbleActivation(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(6)))
	ctrl := core.Attach(s, core.Options{})
	b := ctrl.BubbleRouters()[0]
	s.Routers[b].Bubble.Active = true
	found := false
	for _, v := range Check(s, ctrl) {
		if v.Invariant == "bubble" {
			found = true
		}
	}
	if !found {
		t.Fatal("orphan bubble activation not detected")
	}
}

func TestDetectsCounterCorruption(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	// Plant a packet without bookkeeping: the occupancy invariant must
	// trip, and so must active-set coverage — Step would never visit it.
	p := s.NewPacket(0, 1, 0, 1, routing.Route{geom.East})
	s.Routers[0].In[geom.West][0].Pkt = p
	seen := map[string]bool{}
	for _, v := range Check(s, nil) {
		seen[v.Invariant] = true
	}
	if !seen["occupancy"] || !seen["active-set"] {
		t.Fatalf("planted packet should trip occupancy and active-set, got %v", seen)
	}
}

func TestDetectsQueuedCounterDrift(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	s.Enqueue(s.NewPacket(0, 1, 0, 1, routing.Route{geom.East}))
	s.Enqueue(s.NewPacket(0, 1, 0, 1, routing.Route{geom.East}))
	if vs := Check(s, nil); len(vs) != 0 {
		t.Fatalf("violations with two packets queued: %v", vs)
	}
	// A ring edited without RecountNIPending leaves both counters stale.
	s.NIQueue[0][0].PopFront()
	var got []string
	for _, v := range Check(s, nil) {
		got = append(got, v.Detail)
	}
	want := []string{"router 0: NI-pending counter 2 != actual 1", "global queued 1 != queued counter 2"}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Fatalf("missing %q in %q", w, got)
		}
	}
	s.RecountNIPending(0)
	if vs := Check(s, nil); len(vs) != 1 || vs[0].Invariant != "conservation" {
		t.Fatalf("after the recount only the popped packet's conservation gap should remain, got %v", vs)
	}
}

func TestDetectsDeadRouterWithTraffic(t *testing.T) {
	topo := topology.NewMesh(2, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(8)))
	p := s.NewPacket(0, 1, 0, 5, routing.Route{geom.East})
	s.Enqueue(p)
	s.Run(2)
	topo.DisableRouter(1)
	found := false
	for _, v := range Check(s, nil) {
		if v.Invariant == "dead-router" {
			found = true
		}
	}
	if !found {
		t.Fatal("dead router holding packets not detected")
	}
}

func TestMustPanicsOnViolation(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(9)))
	s.Routers[0].In[geom.West][0].Pkt = s.NewPacket(0, 1, 0, 1, routing.Route{geom.East})
	defer func() {
		if recover() == nil {
			t.Fatal("Must should panic on violations")
		}
	}()
	Must(s, nil)
}

func TestViolationError(t *testing.T) {
	v := Violation{Invariant: "conservation", Detail: "off by one"}
	if v.Error() != "conservation: off by one" {
		t.Fatalf("Error() = %q", v.Error())
	}
}

// TestBubbleOccupantCountsAsNonLocal places a bubble occupant that
// arrived on the local port: the bubble is a non-local candidate whatever
// its input port, so the non-local count and the detection FSM's scan
// both see it, and Check finds nothing to report.
func TestBubbleOccupantCountsAsNonLocal(t *testing.T) {
	topo := topology.NewMesh(3, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	s.Routers[1].Bubble.Present = true
	s.PlaceBubblePacket(1, geom.Local, s.NewPacket(1, 2, 0, 1, routing.Route{geom.East}))
	if vs := Check(s, nil); len(vs) != 0 {
		t.Fatalf("violations after placing a local-port bubble occupant: %v", vs)
	}
	if n := s.Routers[1].OccupiedNonLocal(); n != 1 {
		t.Fatalf("OccupiedNonLocal = %d, want 1", n)
	}
}

func TestDetectsRequestVectorDrift(t *testing.T) {
	topo := topology.NewMesh(3, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(10)))
	p := s.NewPacket(0, 2, 0, 5, routing.Route{geom.East, geom.East})
	s.Enqueue(p)
	s.Run(3) // p now sits in router 1's West port, registered as wanting East
	if s.Routers[1].Occupied() != 1 {
		t.Fatalf("packet is not buffered at router 1 (hop %d)", p.Hop)
	}
	if _, _, live := s.RequestVectors(1); !live {
		t.Fatal("request vectors should be live on a hook-free sim")
	}
	if vs := Check(s, nil); len(vs) != 0 {
		t.Fatalf("violations before the corruption: %v", vs)
	}
	// Change what the packet wants behind the simulator's back: its want
	// bit is now registered under the wrong output.
	p.Hop++
	drifted := func() bool {
		for _, v := range Check(s, nil) {
			if v.Invariant == "request-vectors" {
				return true
			}
		}
		return false
	}
	if !drifted() {
		t.Fatal("request-vector drift not detected")
	}
	// A Wake marks the vectors stale: nothing is vouched for until the
	// next fused sweep rebuilds them, after which they match again.
	s.Wake(1)
	if _, _, live := s.RequestVectors(1); live {
		t.Fatal("vectors still reported live after Wake")
	}
	s.Step()
	if _, _, live := s.RequestVectors(1); !live || drifted() {
		t.Fatalf("vectors not rebuilt by the sweep after Wake (live %v)", live)
	}
}

func TestDetectsBusySetDrift(t *testing.T) {
	// A 2x2 ring deadlock, stepped until router 3's FSM is mid-recovery:
	// one FSM out of S_OFF, its busy bit set.
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(12)))
	ctrl := core.Attach(s, core.Options{TDD: 20})
	ring := []geom.NodeID{0, 2, 3, 1}
	for i, n := range ring {
		next, next2 := ring[(i+1)%4], ring[(i+2)%4]
		route := routing.Route{
			geom.DirectionBetween(topo.Coord(n), topo.Coord(next)),
			geom.DirectionBetween(topo.Coord(next), topo.Coord(next2)),
		}
		for k := 0; k < 12; k++ {
			s.Enqueue(s.NewPacket(n, next2, 0, 5, route))
		}
	}
	var hot geom.NodeID = geom.InvalidNode
	for i := 0; i < 4000 && hot == geom.InvalidNode; i++ {
		s.Step()
		for _, n := range ctrl.BubbleRouters() {
			if ctrl.FSMState(n) != core.StateOff {
				hot = n
			}
		}
	}
	if hot == geom.InvalidNode {
		t.Fatal("no FSM left S_OFF")
	}
	if vs := Check(s, ctrl); len(vs) != 0 {
		t.Fatalf("violations before the corruption: %v", vs)
	}
	sb, busy := ctrl.TickMasks()
	var plain geom.NodeID = geom.InvalidNode // a router without an FSM
	for id := range s.Routers {
		if sb[id>>6]>>(uint(id)&63)&1 == 0 {
			plain = geom.NodeID(id)
		}
	}
	if plain == geom.InvalidNode {
		t.Fatal("every router of the 2x2 has an FSM")
	}
	drifted := func() bool {
		for _, v := range Check(s, ctrl) {
			if v.Invariant == "fsm-busy-set" {
				return true
			}
		}
		return false
	}
	// Each mask, one bit each way.
	for _, c := range []struct {
		name string
		mask []uint64
		at   geom.NodeID
	}{
		{"busy bit dropped under a recovering FSM", busy, hot},
		{"busy bit raised at a router with no FSM", busy, plain},
		{"sb bit dropped under an FSM", sb, hot},
		{"sb bit raised at a router with no FSM", sb, plain},
	} {
		w, bit := c.at>>6, uint64(1)<<(uint(c.at)&63)
		c.mask[w] ^= bit
		if !drifted() {
			t.Errorf("%s: not detected", c.name)
		}
		c.mask[w] ^= bit
		if drifted() {
			t.Fatalf("%s: still reported after the bit was restored", c.name)
		}
	}
}

func TestDetectsEscapeClassViolation(t *testing.T) {
	build := func() (*network.Sim, *network.Packet) {
		topo := topology.NewMesh(3, 1)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(11)))
		escape.Attach(s, routing.NewUpDown(topo))
		p := s.NewPacket(0, 2, 0, 5, routing.Route{geom.East, geom.East})
		s.Enqueue(p)
		s.Run(3) // p sits in a regular VC of router 1's West port
		if s.Routers[1].Occupied() != 1 {
			t.Fatalf("packet is not buffered at router 1 (hop %d)", p.Hop)
		}
		if _, live := s.EscapedVector(1); !live {
			t.Fatal("the class word should be live on an escape sim")
		}
		if vs := Check(s, nil); len(vs) != 0 {
			t.Fatalf("violations before the corruption: %v", vs)
		}
		return s, p
	}
	reported := func(s *network.Sim) bool {
		for _, v := range Check(s, nil) {
			if v.Invariant == "escape-class" {
				return true
			}
		}
		return false
	}
	fresh := func(s *network.Sim, src geom.NodeID) *network.Packet {
		return s.NewPacket(src, 2, 0, 1, routing.Route{geom.East})
	}

	// A promotion that bypassed PromoteEscape: the class word still files
	// the buffer under the regular class.
	s, p := build()
	p.Escaped = true
	if !reported(s) {
		t.Error("a packet escaped behind the simulator's back went unreported")
	}

	// A regular packet in the reserved VC of a link port.
	s, _ = build()
	s.PlacePacket(1, geom.West, escape.EscapeVCIndex, fresh(s, 1))
	if !reported(s) {
		t.Error("a regular packet in a reserved VC went unreported")
	}

	// Anything at all in the reserved VC of a local port.
	s, _ = build()
	q := fresh(s, 1)
	q.Escaped = true
	s.PlacePacket(1, geom.Local, escape.EscapeVCIndex, q)
	if !reported(s) {
		t.Error("a packet in the local port's reserved VC went unreported")
	}

	// The sanctioned promotion keeps every invariant.
	s, _ = build()
	for slot := range s.Routers[1].In[geom.West] {
		if s.Routers[1].In[geom.West][slot].Pkt != nil {
			s.PromoteEscape(1, geom.West, slot)
		}
	}
	if vs := Check(s, nil); len(vs) != 0 {
		t.Errorf("violations after PromoteEscape: %v", vs)
	}
}

func TestDetectsHopClassDrift(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	dead := topo.ID(geom.Coord{X: 1, Y: 2})
	topo.DisableRouter(dead)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(12)))
	s.AttachHopClass(routing.NewMinimal(topo))
	s.Step() // the attach marked the vectors stale; an empty sweep vouches for them again
	// One buffer per kind of registration at router 0 = (0,0): several
	// minimal directions, one, none (destination unreachable), and a
	// packet at its destination.
	for slot, dst := range []geom.NodeID{topo.ID(geom.Coord{X: 2, Y: 2}), topo.ID(geom.Coord{X: 2, Y: 0}), dead, 0} {
		s.PlacePacket(0, geom.Local, slot, s.NewPacket(1, dst, 0, 1, nil))
	}
	choose, masks, live := s.HopVectors()
	if !live {
		t.Fatal("hop vectors should be live on a hook-free sim with a hop class")
	}
	slots := network.SlotsPerPort
	ci := int(geom.Local) * slots // slot 0: the only choose-per-visit buffer
	want, _, _ := s.RequestVectors(0)
	exp := [geom.NumPorts]uint64{geom.East: 1 << uint(ci+1), geom.Local: 1 << uint(ci+3)}
	if choose[0] != 1<<uint(ci) || masks[ci] != 1<<geom.North|1<<geom.East || want != exp {
		t.Fatalf("registered choose %#x mask %#x want %#x", choose[0], masks[ci], want)
	}
	if vs := Check(s, nil); len(vs) != 0 {
		t.Fatalf("violations before the corruption: %v", vs)
	}
	reported := func() bool {
		for _, v := range Check(s, nil) {
			if v.Invariant == "hop-class" {
				return true
			}
		}
		return false
	}
	masks[ci] ^= 1 << geom.South
	if !reported() {
		t.Error("a flipped mask byte went unreported")
	}
	masks[ci] ^= 1 << geom.South
	choose[0] = 0
	if !reported() {
		t.Error("a dropped choose-per-visit bit went unreported")
	}
	choose[0] = 1 << uint(ci)
	choose[0] |= 1 << uint(ci+1) // registered both as a want bit and for a per-visit choice
	if !reported() {
		t.Error("a buffer registered twice went unreported")
	}
	choose[0] = 1 << uint(ci)
	if vs := Check(s, nil); len(vs) != 0 {
		t.Fatalf("violations after the state was restored: %v", vs)
	}
}

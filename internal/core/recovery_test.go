package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// enqueueClockwiseRing primes a 2x2 mesh with a guaranteed deadlock:
// every node streams perNode 5-flit packets two hops clockwise.
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

func TestRingDeadlockRecovers(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c := Attach(s, Options{TDD: 20})
	if got := c.BubbleRouters(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("2x2 placement = %v, want [3]", got)
	}
	total := enqueueClockwiseRing(s, 12)
	s.Run(20000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (in flight %d, queued %d, state %v)",
			s.Stats.Delivered, total, s.InFlight(), s.QueuedPackets(), c.FSMState(3))
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("expected at least one deadlock recovery")
	}
	if s.Stats.ProbesSent == 0 || s.Stats.ProbesReturned == 0 {
		t.Fatalf("probe stats: sent %d returned %d", s.Stats.ProbesSent, s.Stats.ProbesReturned)
	}
	if s.Stats.BubbleOccupancies == 0 {
		t.Fatal("expected packets to pass through the static bubble")
	}
}

func TestRingDeadlockRecoveryClearsAllFences(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c := Attach(s, Options{TDD: 20})
	enqueueClockwiseRing(s, 12)
	s.Run(20000)
	for id := range s.Routers {
		if s.Routers[id].Fence.Active {
			t.Fatalf("router %d fence still active after drain", id)
		}
		if s.Routers[id].Bubble.Active {
			t.Fatalf("router %d bubble still active after drain", id)
		}
	}
	if st := c.FSMState(3); st != StateOff {
		t.Fatalf("FSM state after drain = %v, want S_OFF", st)
	}
	if c.InFlightMessages() != 0 {
		t.Fatalf("%d control messages still in flight", c.InFlightMessages())
	}
}

func TestRecoveryWithoutCheckProbeAblation(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	Attach(s, Options{TDD: 20, DisableCheckProbe: true})
	total := enqueueClockwiseRing(s, 12)
	s.Run(40000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("ablation: delivered %d of %d", s.Stats.Delivered, total)
	}
	if s.Stats.CheckProbesSent != 0 {
		t.Fatal("ablation must not send check probes")
	}
}

func TestNoProbesUnderLightLoad(t *testing.T) {
	// Paper Section V-D: at low loads flits leave before even a tiny tDD
	// expires; with the default tDD no probes should appear.
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	Attach(s, Options{})
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(3))
	for cyc := 0; cyc < 2000; cyc++ {
		for n := 0; n < 64; n++ {
			if rng.Float64() < 0.002 {
				dst := geom.NodeID(rng.Intn(64))
				if r, ok := min.Route(geom.NodeID(n), dst, rng); ok {
					s.Enqueue(s.NewPacket(geom.NodeID(n), dst, 0, 5, r))
				}
			}
		}
		s.Step()
	}
	if s.Stats.ProbesSent != 0 {
		t.Fatalf("sent %d probes at low load, want 0", s.Stats.ProbesSent)
	}
	if s.Stats.Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
}

func TestCongestionFalsePositiveIsHarmless(t *testing.T) {
	// Stall ejection at one node long enough to trip tDD. The probe is
	// sent but the input port is not fully occupied, so it is dropped and
	// the network proceeds normally once the stall ends.
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(4)))
	c := Attach(s, Options{TDD: 10})
	// One packet from node 1 to node 3 (a bubble node), stalled at
	// ejection.
	s.Routers[3].OutFreeAt[geom.Local] = 100
	p := s.NewPacket(1, 3, 0, 5, routing.Route{geom.North})
	s.Enqueue(p)
	s.Run(400)
	if p.DeliveredAt < 0 {
		t.Fatal("packet should be delivered after the stall")
	}
	if s.Stats.DeadlockRecoveries != 0 {
		t.Fatal("a pure ejection stall must not trigger recovery")
	}
	if c.FSMState(3) != StateOff {
		t.Fatalf("FSM should be off, got %v", c.FSMState(3))
	}
}

// buildDeadlockOn44 primes a 4-node square loop on a 4x4 mesh around the
// cycle (1,1)→(2,1)→(2,2)→(1,2)→(1,1) (counterclockwise in id terms).
func buildDeadlockOn44(s *network.Sim, perNode int) int {
	topo := s.Topo
	loop := []geom.NodeID{
		topo.ID(geom.Coord{X: 1, Y: 1}),
		topo.ID(geom.Coord{X: 2, Y: 1}),
		topo.ID(geom.Coord{X: 2, Y: 2}),
		topo.ID(geom.Coord{X: 1, Y: 2}),
	}
	total := 0
	for i, n := range loop {
		next := loop[(i+1)%4]
		next2 := loop[(i+2)%4]
		d1 := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
		d2 := geom.DirectionBetween(topo.Coord(next), topo.Coord(next2))
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(n, next2, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	return total
}

func TestInnerLoopDeadlockRecoversOn4x4(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	Attach(s, Options{TDD: 20})
	total := buildDeadlockOn44(s, 12)
	s.Run(30000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (recoveries %d)",
			s.Stats.Delivered, total, s.Stats.DeadlockRecoveries)
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("expected recoveries on the inner loop")
	}
}

func TestHighLoadRandomTrafficAlwaysDrains(t *testing.T) {
	// Liveness under deadlock-inducing uniform-random minimal-routing
	// traffic on irregular topologies: after injection stops, the network
	// must drain completely (deadlocks recovered), across several seeds.
	// The 0.10 flits/node/cycle load is well beyond the deadlock-onset
	// rates of Fig. 3 and an order of magnitude beyond real workloads
	// (Section I); recoveries are expected to fire.
	totalRecoveries := int64(0)
	for seed := int64(0); seed < 4; seed++ {
		topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 10, seed)
		min := routing.NewMinimal(topo)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
		Attach(s, Options{TDD: 24, Placement: Placement(6, 6)})
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
		// Allow a long drain horizon.
		for i := 0; i < 200000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
			s.Run(100)
		}
		if s.InFlight()+s.QueuedPackets() != 0 {
			t.Fatalf("seed %d: %d in flight, %d queued after drain horizon (recoveries %d, probes %d)",
				seed, s.InFlight(), s.QueuedPackets(), s.Stats.DeadlockRecoveries, s.Stats.ProbesSent)
		}
		if s.Stats.Delivered != offered {
			t.Fatalf("seed %d: delivered %d of %d", seed, s.Stats.Delivered, offered)
		}
		totalRecoveries += s.Stats.DeadlockRecoveries
	}
	if totalRecoveries == 0 {
		t.Fatal("no deadlock recoveries across all seeds: the load did not exercise recovery")
	}
}

func TestSaturationCollapseCharacterization(t *testing.T) {
	// Known limitation (also the motivation for the SPIN/SWAP follow-up
	// work): with one spare buffer per SB router, deeply oversubscribed
	// traffic can strand occupants in every reachable bubble and exhaust
	// the design's recovery capacity — the network stops draining even
	// though every individual deadlocked ring is covered. This test pins
	// the *graceful* part of that behaviour: recoveries keep firing,
	// substantial traffic is still delivered, the liveness guards tear
	// fences down (no permanent protocol-held resources at non-recovering
	// routers), and accounting stays consistent.
	seed := int64(0)
	topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 10, seed)
	min := routing.NewMinimal(topo)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
	c := Attach(s, Options{TDD: 24, Placement: Placement(6, 6)})
	rng := rand.New(rand.NewSource(seed + 100))
	offered := int64(0)
	for cyc := 0; cyc < 4000; cyc++ {
		if cyc < 2500 {
			for n := 0; n < 36; n++ {
				if !topo.RouterAlive(geom.NodeID(n)) {
					continue
				}
				if rng.Float64() < 0.30 { // ~20x oversubscription
					dst := geom.NodeID(rng.Intn(36))
					r, ok := min.Route(geom.NodeID(n), dst, rng)
					if !ok {
						s.Drop()
						continue
					}
					s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 1+4*rng.Intn(2), r))
					offered++
				}
			}
		}
		s.Step()
	}
	s.Run(30000)
	if s.Stats.Delivered+s.InFlight()+s.QueuedPackets() != offered {
		t.Fatal("conservation violated under saturation collapse")
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("expected recoveries under saturation")
	}
	if s.Stats.Delivered < offered/20 {
		t.Fatalf("delivered only %d of %d even before collapse", s.Stats.Delivered, offered)
	}
	// Every active fence must belong to an FSM currently in recovery;
	// stale fences would mean the teardown guards failed.
	inRecovery := map[geom.NodeID]bool{}
	for _, n := range c.BubbleRouters() {
		if c.FSMState(n).inRecovery() {
			inRecovery[n] = true
		}
	}
	for id := range s.Routers {
		fe := s.Routers[id].Fence
		if fe.Active && !inRecovery[fe.SrcID] {
			t.Fatalf("router %d holds a stale fence from %v (FSM state %v)",
				id, fe.SrcID, c.FSMState(fe.SrcID))
		}
	}
}

func TestTwoIndependentDeadlocksRecoverInParallel(t *testing.T) {
	// An 8x8 mesh with two disjoint 4-node loops, each covered by its own
	// bubble router.
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(6)))
	Attach(s, Options{TDD: 20})
	mk := func(ox, oy int) int {
		loop := []geom.NodeID{
			topo.ID(geom.Coord{X: ox, Y: oy}),
			topo.ID(geom.Coord{X: ox + 1, Y: oy}),
			topo.ID(geom.Coord{X: ox + 1, Y: oy + 1}),
			topo.ID(geom.Coord{X: ox, Y: oy + 1}),
		}
		total := 0
		for i, n := range loop {
			next := loop[(i+1)%4]
			next2 := loop[(i+2)%4]
			d1 := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
			d2 := geom.DirectionBetween(topo.Coord(next), topo.Coord(next2))
			for k := 0; k < 10; k++ {
				s.Enqueue(s.NewPacket(n, next2, 0, 5, routing.Route{d1, d2}))
				total++
			}
		}
		return total
	}
	total := mk(0, 0) + mk(5, 5)
	s.Run(40000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (recoveries %d)", s.Stats.Delivered, total, s.Stats.DeadlockRecoveries)
	}
	if s.Stats.DeadlockRecoveries < 2 {
		t.Fatalf("expected recoveries in both loops, got %d", s.Stats.DeadlockRecoveries)
	}
}

func TestAttachSkipsDeadBubbleRouters(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	bubble := topo.ID(geom.Coord{X: 1, Y: 1})
	topo.DisableRouter(bubble)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	c := Attach(s, Options{})
	for _, n := range c.BubbleRouters() {
		if n == bubble {
			t.Fatal("dead router must not carry an FSM")
		}
	}
	if len(c.BubbleRouters()) != 20 {
		t.Fatalf("expected 20 live bubble routers, got %d", len(c.BubbleRouters()))
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	run := func() network.Stats {
		topo := topology.NewMesh(2, 2)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
		Attach(s, Options{TDD: 20})
		enqueueClockwiseRing(s, 12)
		s.Run(20000)
		return s.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("recovery not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestMsgTypeStringsAndPriorities(t *testing.T) {
	if MsgProbe.String() != "probe" || MsgDisable.String() != "disable" ||
		MsgEnable.String() != "enable" || MsgCheckProbe.String() != "check_probe" {
		t.Fatal("unexpected MsgType strings")
	}
	if MsgType(9).String() != "MsgType(9)" {
		t.Fatal("fallback string broken")
	}
	if !(MsgCheckProbe.priority() > MsgDisable.priority() &&
		MsgDisable.priority() == MsgEnable.priority() &&
		MsgEnable.priority() > MsgProbe.priority()) {
		t.Fatal("priority order violates Section IV-C")
	}
}

func TestStateStrings(t *testing.T) {
	wants := map[State]string{
		StateOff: "S_OFF", StateDD: "S_DD", StateDisable: "S_DISABLE",
		StateSBActive: "S_SB_ACTIVE", StateCheckProbe: "S_CHECK_PROBE",
		StateEnable: "S_ENABLE", State(9): "State(9)",
	}
	for st, w := range wants {
		if st.String() != w {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), w)
		}
	}
	if StateOff.inRecovery() || StateDD.inRecovery() {
		t.Error("Off/DD are not recovery states")
	}
	for _, st := range []State{StateDisable, StateSBActive, StateCheckProbe, StateEnable} {
		if !st.inRecovery() {
			t.Errorf("%v should be a recovery state", st)
		}
	}
}

// primeRectLoop wedges a w×h rectangle of routers anchored at (x0, y0)
// with clockwise streams (each packet travels half the perimeter).
func primeRectLoop(s *network.Sim, x0, y0, w, h, perNode int) int {
	topo := s.Topo
	var loop []geom.NodeID
	for x := x0; x < x0+w; x++ {
		loop = append(loop, topo.ID(geom.Coord{X: x, Y: y0}))
	}
	for y := y0 + 1; y < y0+h; y++ {
		loop = append(loop, topo.ID(geom.Coord{X: x0 + w - 1, Y: y}))
	}
	for x := x0 + w - 2; x >= x0; x-- {
		loop = append(loop, topo.ID(geom.Coord{X: x, Y: y0 + h - 1}))
	}
	for y := y0 + h - 2; y > y0; y-- {
		loop = append(loop, topo.ID(geom.Coord{X: x0, Y: y}))
	}
	n := len(loop)
	total := 0
	for i, src := range loop {
		hops := n / 2
		var route routing.Route
		cur := src
		for k := 1; k <= hops; k++ {
			next := loop[(i+k)%n]
			route = append(route, geom.DirectionBetween(s.Topo.Coord(cur), s.Topo.Coord(next)))
			cur = next
		}
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(src, cur, 0, 5, route))
			total++
		}
	}
	return total
}

func TestRecoveryLatencyScalesWithPathLength(t *testing.T) {
	// Table I: SB's deadlock-resolution time depends on the length of the
	// deadlocked path (the disable/enable must traverse it). Wedge loops
	// of growing perimeter and compare measured recovery durations.
	type loopCase struct {
		w, h      int
		perimeter int
	}
	cases := []loopCase{{2, 2, 4}, {3, 3, 8}, {4, 4, 12}}
	meanDur := make([]float64, len(cases))
	for ci, lc := range cases {
		topo := topology.NewMesh(8, 8)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(int64(ci)+1)))
		c := Attach(s, Options{TDD: 20})
		total := primeRectLoop(s, 1, 1, lc.w, lc.h, 8)
		s.Run(60000)
		if s.Stats.Delivered != int64(total) {
			t.Fatalf("%dx%d loop: delivered %d of %d", lc.w, lc.h, s.Stats.Delivered, total)
		}
		recs := c.RecoveryRecords()
		if len(recs) == 0 {
			t.Fatalf("%dx%d loop: no recovery records", lc.w, lc.h)
		}
		var sum float64
		var maxPath int64
		for _, r := range recs {
			sum += float64(r.Duration)
			if r.PathLen > maxPath {
				maxPath = r.PathLen
			}
			// Each recovery spans at least the disable+enable round trips.
			if r.Duration < 2*r.PathLen {
				t.Fatalf("recovery duration %d below the 2x path-length floor (path %d)",
					r.Duration, r.PathLen)
			}
		}
		meanDur[ci] = sum / float64(len(recs))
		if maxPath < int64(lc.perimeter) {
			t.Fatalf("%dx%d loop: longest latched path %d < perimeter %d",
				lc.w, lc.h, maxPath, lc.perimeter)
		}
	}
	if !(meanDur[0] < meanDur[2]) {
		t.Fatalf("recovery duration does not grow with path length: %v", meanDur)
	}
}

func TestSpinModeRecoversRingWithoutBubble(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	Attach(s, Options{TDD: 20, Spin: true})
	total := enqueueClockwiseRing(s, 12)
	s.Run(20000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("spin mode delivered %d of %d (rotations %d)",
			s.Stats.Delivered, total, s.Stats.SpinRotations)
	}
	if s.Stats.SpinRotations == 0 {
		t.Fatal("expected spin rotations")
	}
	if s.Stats.BubbleOccupancies != 0 {
		t.Fatal("spin mode must not use the bubble")
	}
}

func TestSpinModeHandlesLargerLoops(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	Attach(s, Options{TDD: 20, Spin: true})
	total := primeRectLoop(s, 1, 1, 4, 4, 8)
	s.Run(60000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d (rotations %d)",
			s.Stats.Delivered, total, s.Stats.SpinRotations)
	}
}

func TestSpinModeOutperformsBubbleUnderSaturation(t *testing.T) {
	// SPIN's rotation needs no spare buffer, so it cannot be poisoned by
	// stranded occupants: on the saturation-collapse workload (see
	// TestSaturationCollapseCharacterization) it sustains recovery far
	// longer and delivers a multiple of plain Static Bubble's traffic.
	// (Neither fully drains a 20x oversubscription — the full SPIN
	// protocol's probe enhancements are not modeled.)
	run := func(spin bool) int64 {
		seed := int64(0)
		topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 10, seed)
		min := routing.NewMinimal(topo)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
		Attach(s, Options{TDD: 24, Placement: Placement(6, 6), Spin: spin})
		rng := rand.New(rand.NewSource(seed + 100))
		for cyc := 0; cyc < 4000; cyc++ {
			if cyc < 2500 {
				for n := 0; n < 36; n++ {
					if !topo.RouterAlive(geom.NodeID(n)) {
						continue
					}
					if rng.Float64() < 0.30 {
						dst := geom.NodeID(rng.Intn(36))
						r, ok := min.Route(geom.NodeID(n), dst, rng)
						if !ok {
							s.Drop()
							continue
						}
						s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 1+4*rng.Intn(2), r))
					}
				}
			}
			s.Step()
		}
		s.Run(30000)
		return s.Stats.Delivered
	}
	bubble := run(false)
	spin := run(true)
	if spin < bubble*3/2 {
		t.Fatalf("SPIN delivered %d, plain SB %d; expected a clear advantage", spin, bubble)
	}
}

func TestLivenessMatrixAcrossConfigurations(t *testing.T) {
	// Drain-liveness across the configuration space: every option
	// combination must deliver every packet of a deadlock-inducing
	// workload.
	// fullDrain variants hold the fences through a chain's whole drain
	// (the check_probe loop) and detect promptly; they must deliver every
	// packet. The partial variants disable one of those properties and
	// lose the race against ring refill near saturation — a measured
	// finding (the paper's footnote 7 frames check_probe as a latency
	// optimization only; at this load it is load-bearing for drain
	// completeness). They still must deliver the vast majority.
	configs := []struct {
		name      string
		opt       Options
		fullDrain bool
	}{
		{"default", Options{TDD: 24}, true},
		{"spin", Options{TDD: 24, Spin: true}, true},
		{"hair_trigger", Options{TDD: 5}, true},
		{"no_check_probe", Options{TDD: 24, DisableCheckProbe: true}, false},
		{"slow_detect", Options{TDD: 100}, false},
		{"tight_turn_capacity", Options{TDD: 24, MaxTurns: 16}, false},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 10, seed)
				min := routing.NewMinimal(topo)
				s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
				opt := cfg.opt
				opt.Placement = Placement(6, 6)
				Attach(s, opt)
				rng := rand.New(rand.NewSource(seed + 100))
				offered := int64(0)
				for cyc := 0; cyc < 4000; cyc++ {
					if cyc < 2500 {
						for n := 0; n < 36; n++ {
							if !topo.RouterAlive(geom.NodeID(n)) || rng.Float64() >= 0.10 {
								continue
							}
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
					s.Step()
				}
				for i := 0; i < 300000 && s.InFlight()+s.QueuedPackets() > 0; i += 200 {
					s.Run(200)
				}
				if cfg.fullDrain {
					if s.Stats.Delivered != offered {
						t.Fatalf("seed %d: delivered %d of %d (recoveries %d, spins %d)",
							seed, s.Stats.Delivered, offered,
							s.Stats.DeadlockRecoveries, s.Stats.SpinRotations)
					}
				} else if s.Stats.Delivered < offered*60/100 {
					t.Fatalf("seed %d: delivered %d of %d — even a degraded variant should clear 60%%",
						seed, s.Stats.Delivered, offered)
				}
			}
		})
	}
}

func TestEnableRetryLimitReleasesAfterPathDeath(t *testing.T) {
	// Kill a link of the latched cycle while the recovery is in flight:
	// the enable can never complete its loop, and without a retry bound
	// the FSM would hold its own fence forever.
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c := Attach(s, Options{TDD: 20})
	enqueueClockwiseRing(s, 12)
	// Wait for a recovery to start, then sever a ring link.
	for i := 0; i < 4000 && s.Stats.DeadlockRecoveries == 0; i++ {
		s.Step()
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("no recovery started")
	}
	topo.DisableLink(0, geom.North) // ring link 0→2 dies mid-recovery
	s.Run(40000)
	if st := c.FSMState(3); st.inRecovery() {
		t.Fatalf("FSM stuck in %v after path death", st)
	}
	if s.Routers[3].Fence.Active {
		t.Fatal("originator's fence must be released after abandoning the round")
	}
	// The abandoned round's enable never returned: it is no completed
	// recovery, so it leaves no record.
	if recs := c.RecoveryRecords(); len(recs) != 0 {
		t.Fatalf("abandoned round recorded as a completed recovery: %+v", recs)
	}
}

// firstWedgedStormEpisode runs bench's recovery-storm recipe (bench/
// workloads.go buildStormPair: a 25-link-fault 8x8, 500-cycle bursts of
// uniform random traffic at 0.25 flits/node/cycle per 4000-cycle
// episode, seeds derived from the (topology, variant) pair) and returns
// the first of 64 episodes the network has not drained by the end of, or
// -1 when all of them drain.
func firstWedgedStormEpisode(topoSeed, variant int64, spin bool) int {
	const burst, episode, episodes = 500, 4000, 64
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 25, topoSeed)
	base := sweep.NewKey("bench-storm").Int64("topo", topoSeed).Int64("variant", variant).Seed()
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(sweep.SubSeed(base, 0))))
	Attach(s, Options{Spin: spin})
	alive := topo.AliveRouters()
	inj := traffic.NewInjector(alive, routing.NewMinimal(topo), traffic.NewUniformRandom(alive), 0.25,
		rand.New(rand.NewSource(sweep.SubSeed(base, 1))))
	for e := 0; e < episodes; e++ {
		for c := 0; c < episode; c++ {
			if c < burst {
				inj.Tick(s)
			}
			s.Step()
		}
		if s.InFlight()+s.QueuedPackets() != 0 {
			return e
		}
	}
	return -1
}

// TestWedgeReproducerBubbleVsSpin pins ROADMAP item 1(a)'s discriminating
// experiment (EXPERIMENTS.md "Reproduction verdicts"): the storm
// reproducers that wedge under Static Bubble mostly drain under SPIN,
// which shares detection, probes, fences and enables but needs no spare
// buffer — so the wedge is mostly recovery capacity (bubble poisoning) —
// and one of them still wedges under SPIN, later, so a residual lives in
// the shared protocol. A characterisation, not a requirement: a change
// that moves these episodes is expected to update them.
func TestWedgeReproducerBubbleVsSpin(t *testing.T) {
	for _, c := range []struct {
		topoSeed, variant int64
		spin              bool
		want              int
	}{
		{13, 1, false, 16},
		{13, 1, true, -1},
		{57, 2, true, 55},
	} {
		if got := firstWedgedStormEpisode(c.topoSeed, c.variant, c.spin); got != c.want {
			t.Errorf("topology %d variant %d spin=%v: first wedged episode %d, want %d (-1: none of 64)",
				c.topoSeed, c.variant, c.spin, got, c.want)
		}
	}
}

package adaptive

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

func TestAdaptiveDeliversMinimally(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c := Attach(s)
	src := topo.ID(geom.Coord{X: 0, Y: 0})
	dst := topo.ID(geom.Coord{X: 5, Y: 5})
	pkt := c.NewPacket(src, dst, 0, 5)
	s.Enqueue(pkt)
	s.Run(80)
	if pkt.DeliveredAt < 0 {
		t.Fatal("adaptive packet not delivered")
	}
	if pkt.Hop != 10 {
		t.Fatalf("took %d hops, want minimal 10", pkt.Hop)
	}
}

func TestAdaptiveAvoidsCongestion(t *testing.T) {
	// Saturate one of two minimal first hops; the adaptive choice must
	// route fresh packets around it.
	topo := topology.NewMesh(3, 3)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	c := Attach(s)
	// Fill all vnet-0 VCs at (0,1)'s South port: North, the first of the
	// two minimal directions and the one ties resolve to, has no free VC.
	north := topo.ID(geom.Coord{X: 0, Y: 1})
	for i := 0; i < network.VCsPerVnet; i++ {
		blocker := c.NewPacket(0, north, 0, 5)
		blocker.Hop = 1
		s.PlacePacket(north, geom.South, i, blocker)
	}
	s.Routers[north].OutFreeAt[geom.Local] = 1 << 30 // hold them there
	p := c.NewPacket(0, topo.ID(geom.Coord{X: 1, Y: 1}), 0, 1)
	s.Enqueue(p)
	// The blockers never leave, so only an East first hop delivers: a
	// choice blind to them waits behind them for good.
	s.Run(46)
	if p.DeliveredAt < 0 {
		t.Fatal("packet did not take the uncongested East hop")
	}
	if p.Hop != 2 {
		t.Fatalf("hops = %d, want 2 (still minimal)", p.Hop)
	}
}

func TestAdaptiveWithStaticBubbleRecovery(t *testing.T) {
	// Full adaptivity changes which cycles form, not whether SB covers
	// them: sustained deadlock-prone traffic drains completely.
	topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 10, 3)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
	core.Attach(s, core.Options{TDD: 24, Placement: core.Placement(6, 6)})
	c := Attach(s)
	rng := rand.New(rand.NewSource(4))
	offered := int64(0)
	for cyc := 0; cyc < 4000; cyc++ {
		if cyc < 2500 {
			for n := 0; n < 36; n++ {
				src := geom.NodeID(n)
				if !topo.RouterAlive(src) || rng.Float64() >= 0.10 {
					continue
				}
				dst := geom.NodeID(rng.Intn(36))
				if dst == src || !c.Reachable(src, dst) {
					s.Drop()
					continue
				}
				ln := 1
				if rng.Intn(2) == 0 {
					ln = 5
				}
				s.Enqueue(c.NewPacket(src, dst, rng.Intn(3), ln))
				offered++
			}
		}
		s.Step()
	}
	for i := 0; i < 200000 && s.InFlight()+s.QueuedPackets() > 0; i += 100 {
		s.Run(100)
	}
	if s.Stats.Delivered != offered {
		t.Fatalf("adaptive+SB: delivered %d of %d (in flight %d, recoveries %d)",
			s.Stats.Delivered, offered, s.InFlight(), s.Stats.DeadlockRecoveries)
	}
}

func TestAdaptiveHopCountAlwaysMinimal(t *testing.T) {
	// Adaptivity must never stretch paths: every delivered packet's hop
	// count equals the shortest-path distance.
	topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 8, 5)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	c := Attach(s)
	min := routing.NewMinimal(topo)
	type issued struct {
		p    *network.Packet
		want int
	}
	var all []issued
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		src := geom.NodeID(rng.Intn(36))
		dst := geom.NodeID(rng.Intn(36))
		if src == dst || !topo.RouterAlive(src) || !c.Reachable(src, dst) {
			continue
		}
		p := c.NewPacket(src, dst, 0, 1)
		s.Enqueue(p)
		all = append(all, issued{p, min.Distance(src, dst)})
	}
	s.Run(20000)
	for _, it := range all {
		if it.p.DeliveredAt < 0 {
			t.Fatal("packet not delivered")
		}
		if it.p.Hop != it.want {
			t.Fatalf("packet took %d hops, shortest is %d", it.p.Hop, it.want)
		}
	}
}

func TestAdaptiveParksWhenDisconnected(t *testing.T) {
	topo := topology.NewMesh(4, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	c := Attach(s)
	p := c.NewPacket(0, 3, 0, 1)
	s.Enqueue(p)
	s.Run(3)
	topo.DisableLink(1, geom.East) // p is at router 1 now, dst unreachable
	s.Run(50)
	if p.DeliveredAt >= 0 {
		t.Fatal("packet cannot have crossed a cut")
	}
	if s.InFlight() != 1 {
		t.Fatal("packet should be parked in the network")
	}
}

// TestAdaptiveMatchesRefmodel is the per-hop adaptive scheme's
// differential check: a 40-link-fault 16×16 with Static Bubble attached
// runs identically seeded under the refmodel full scan — the generic
// AllocateNode asking OutputOf per head — and under Sim.Step, where the
// hop class keeps the fused pass and the request vectors; the complete
// Stats struct must agree after every cycle, through at least one deadlock
// recovery and one bubble occupancy. The 60-scenario harness never attaches
// a hop class.
func TestAdaptiveMatchesRefmodel(t *testing.T) {
	type unit struct {
		name string
		sim  *network.Sim
		ctl  *core.Controller
		tick func()
	}
	build := func(name string, useRef bool) *unit {
		topo := topology.RandomIrregular(16, 16, topology.LinkFaults, 40, 7)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(51)))
		ctl := core.Attach(s, core.Options{})
		c := Attach(s)
		step := s.Step
		if useRef {
			step = refmodel.New(s).Step
		}
		alive := topo.AliveRouters()
		rng := rand.New(rand.NewSource(52))
		return &unit{name, s, ctl, func() {
			for _, src := range alive {
				if rng.Float64() >= 0.05 {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				if dst == src || !c.Reachable(src, dst) {
					continue
				}
				s.Enqueue(c.NewPacket(src, dst, 0, 5))
			}
			step()
		}}
	}
	ref, step := build("refmodel", true), build("step", false)
	units := []*unit{ref, step}
	for cyc := 1; cyc <= 1600; cyc++ { // the first recovery completes near cycle 1100
		for _, u := range units {
			u.tick()
			if u.sim.Stats != ref.sim.Stats {
				t.Fatalf("cycle %d: %s diverged from refmodel\n%s: %+v\nrefmodel: %+v",
					cyc, u.name, u.name, u.sim.Stats, ref.sim.Stats)
			}
			if cyc%64 == 0 {
				if vs := validate.Check(u.sim, u.ctl); len(vs) > 0 {
					t.Fatalf("cycle %d: %s: %d invariant violations, first: %v", cyc, u.name, len(vs), vs[0])
				}
			}
		}
	}
	if st := ref.sim.Stats; st.Delivered == 0 || st.DeadlockRecoveries == 0 || st.BubbleOccupancies == 0 {
		t.Fatalf("the scenario is not exercising the scheme: delivered %d, recoveries %d, bubble occupancies %d",
			st.Delivered, st.DeadlockRecoveries, st.BubbleOccupancies)
	}
}

// The hop class answers for every packet and the escape class moves
// packets onto a tree: attached together, whichever came second would be
// silently ignored, so the second attach refuses.
func TestAdaptiveRefusesEscapeClass(t *testing.T) {
	for _, escapeFirst := range []bool{false, true} {
		topo := topology.NewMesh(3, 3)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(8)))
		attach := []func(){
			func() { Attach(s) },
			func() { escape.Attach(s, routing.NewUpDown(topo)) },
		}
		if escapeFirst {
			attach[0], attach[1] = attach[1], attach[0]
		}
		attach[0]()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("escape first %v: the second attach did not panic", escapeFirst)
				}
			}()
			attach[1]()
		}()
	}
}

// TestOverrideBesideHopClassIsInert pins what bench's traced pass rests
// on: it wraps s.OutputOverride after Attach (the inner value is nil now
// that the scheme is a hop class), and that wrapper must be neither
// called nor cost the run the fused pass.
func TestOverrideBesideHopClassIsInert(t *testing.T) {
	calls := 0
	run := func(wrap bool) network.Stats {
		topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 10, 9)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(10)))
		core.Attach(s, core.Options{TDD: 24})
		c := Attach(s)
		if wrap {
			inner := s.OutputOverride
			s.OutputOverride = func(p *network.Packet, at geom.NodeID) (geom.Direction, bool) {
				calls++
				return inner(p, at)
			}
		}
		alive := topo.AliveRouters()
		rng := rand.New(rand.NewSource(11))
		for cyc := 0; cyc < 600; cyc++ {
			for _, src := range alive {
				if dst := alive[rng.Intn(len(alive))]; rng.Float64() < 0.08 && dst != src && c.Reachable(src, dst) {
					s.Enqueue(c.NewPacket(src, dst, rng.Intn(3), 5))
				}
			}
			s.Step()
		}
		return s.Stats
	}
	plainStats := run(false)
	wrapStats := run(true)
	if calls != 0 {
		t.Fatalf("the override beside the hop class was called %d times", calls)
	}
	if plainStats != wrapStats {
		t.Fatalf("the wrapper changed the run\nplain: %+v\nwrapped: %+v", plainStats, wrapStats)
	}
	if plainStats.Delivered == 0 {
		t.Fatal("vacuous: nothing delivered")
	}
}

package core

// New == old for the FSM tick set. tickAll visits act&sb | busy instead
// of every FSM; the scan over every FSM it replaced lives on here as the
// oracle. Twin simulations — one attached normally, one ticking every
// FSM every cycle — are driven by identically seeded traffic and must
// agree on Stats and on every FSM's state after every cycle.

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fsmList returns every FSM in ascending router id: the slice the
// replaced tickAll ranged over.
func (c *Controller) fsmList() []*fsm {
	var l []*fsm
	for _, f := range c.fsms {
		if f != nil {
			l = append(l, f)
		}
	}
	return l
}

// tickAllFullScan is tickAll as it was before the tick set.
func (c *Controller) tickAllFullScan() {
	for _, f := range c.fsmList() {
		c.tickFSM(f)
	}
}

// attachFullScan is Attach with the full-scan tick in tickAll's place.
func attachFullScan(s *network.Sim, opt Options) *Controller {
	c := Attach(s, opt)
	s.PostCycle[len(s.PostCycle)-1] = func(*network.Sim) { c.tickAllFullScan() }
	return c
}

// checkTickMasks asserts the two mask invariants: sb bit iff an FSM
// sits at the position, busy bit iff that FSM is not in StateOff.
func checkTickMasks(t *testing.T, c *Controller) {
	t.Helper()
	for p, f := range c.fsms {
		sb := c.sb[p>>6]>>(uint(p)&63)&1 != 0
		busy := c.busy[p>>6]>>(uint(p)&63)&1 != 0
		if sb != (f != nil) {
			t.Fatalf("cycle %d: position %d: sb bit %v, FSM present %v", c.sim.Now, p, sb, f != nil)
		}
		if busy != (f != nil && f.state != StateOff) {
			t.Fatalf("cycle %d: position %d: busy bit %v but FSM %v", c.sim.Now, p, busy, f)
		}
	}
}

// tickTwin is one side of a twin run.
type tickTwin struct {
	s   *network.Sim
	c   *Controller
	mgr *reconfig.Manager
	inj *traffic.Injector
}

// tickTwins holds the set side, the full-scan oracle, and the visit
// tallies of both.
type tickTwins struct {
	t                     *testing.T
	set, scan             tickTwin
	setVisits, scanVisits int64
}

// newTickTwins builds both sides over clones of topo, each with its own
// reconfig manager (whose routing follows the runtime failures) and an
// identically seeded uniform-random injector. Both sides attach with opt.
func newTickTwins(t *testing.T, topo *topology.Topology, rate float64, opt Options) *tickTwins {
	tw := &tickTwins{t: t}
	build := func(side *tickTwin, cfg network.Config, attach func(*network.Sim, Options) *Controller) {
		tp := topo.Clone()
		side.s = network.New(tp, cfg, rand.New(rand.NewSource(11)))
		side.c = attach(side.s, opt)
		side.mgr = reconfig.New(side.s)
		side.mgr.SetScheme(side.c)
		side.inj = traffic.NewInjector(tp.AliveRouters(), side.mgr.Algorithm(),
			traffic.NewUniformRandom(tp.AliveRouters()), rate, rand.New(rand.NewSource(12)))
	}
	build(&tw.set, network.Config{}, Attach)
	build(&tw.scan, network.Config{}, attachFullScan)
	// Tally the set side's visits just ahead of its tickAll.
	c := tw.set.c
	hooks := tw.set.s.PostCycle
	tally := func(*network.Sim) {
		for w := range c.busy {
			tw.setVisits += int64(bits.OnesCount64(c.tickSet(w)))
		}
	}
	last := len(hooks) - 1
	tw.set.s.PostCycle = append(hooks[:last:last], tally, hooks[last])
	return tw
}

// step advances both sides one cycle (injecting first when inject is
// set) and compares them.
func (tw *tickTwins) step(inject bool) {
	t := tw.t
	t.Helper()
	for _, side := range []*tickTwin{&tw.set, &tw.scan} {
		if inject {
			side.inj.Tick(side.s)
		}
		side.s.Step()
	}
	tw.scanVisits += int64(len(tw.scan.c.fsmList()))
	if tw.set.s.Stats != tw.scan.s.Stats {
		t.Fatalf("cycle %d: Stats diverged:\nset  %+v\nscan %+v", tw.scan.s.Now, tw.set.s.Stats, tw.scan.s.Stats)
	}
	for _, f := range tw.scan.c.fsmList() {
		if got := tw.set.c.FSMState(f.node); got != f.state {
			t.Fatalf("cycle %d: FSM at %v is %v on the set side, %v under the full scan", tw.scan.s.Now, f.node, got, f.state)
		}
	}
	checkTickMasks(t, tw.set.c)
}

// drain steps without injection until both networks are empty and then
// 200 cycles more, in which only FSM countdowns can act.
func (tw *tickTwins) drain(limit int) {
	tw.t.Helper()
	for i := 0; tw.scan.s.InFlight()+tw.scan.s.QueuedPackets() > 0; i++ {
		if i == limit {
			tw.t.Fatalf("not drained after %d cycles (%d in flight)", limit, tw.scan.s.InFlight())
		}
		tw.step(false)
	}
	for i := 0; i < 200; i++ {
		tw.step(false)
	}
}

// recovering returns the lowest-id router whose FSM (oracle side) is in
// S_SB_ACTIVE, if any.
func (tw *tickTwins) recovering() (geom.NodeID, bool) {
	for _, f := range tw.scan.c.fsmList() {
		if f.state == StateSBActive {
			return f.node, true
		}
	}
	return 0, false
}

func TestTickSetMatchesFullScan(t *testing.T) {
	storm := func(seed int64) *topology.Topology {
		return topology.RandomIrregular(8, 8, topology.LinkFaults, 25, seed)
	}

	// recovery_storm-shaped episodes: a 500-cycle burst at 0.25
	// flits/node/cycle on a 25-link-fault 8x8, then drain to quiet, three
	// times over.
	t.Run("storm/topo4", func(t *testing.T) {
		tw := newTickTwins(t, storm(4), 0.25, Options{})
		for ep := 0; ep < 3; ep++ {
			for i := 0; i < 500; i++ {
				tw.step(true)
			}
			tw.drain(40000)
		}
		if n := len(tw.scan.c.RecoveryRecords()); n == 0 {
			t.Fatal("vacuous: no recovery completed")
		}
	})

	// Trickle load on a healthy 16x16: almost every FSM idles in S_OFF,
	// which is where the set must save its visits.
	t.Run("trickle/16x16", func(t *testing.T) {
		tw := newTickTwins(t, topology.NewMesh(16, 16), 0.0005, Options{})
		for i := 0; i < 6000; i++ {
			tw.step(true)
		}
		tw.drain(2000)
		if tw.set.s.Stats.Delivered == 0 {
			t.Fatal("vacuous: nothing delivered")
		}
		if tw.setVisits*10 >= tw.scanVisits {
			t.Fatalf("set side made %d FSM visits, the full scan %d: want under 10%%", tw.setVisits, tw.scanVisits)
		}
	})

	// Churn: one placement router is dead at Attach; the first router
	// caught mid-recovery fails on the spot; both come back while the
	// burst is still running.
	t.Run("churn", func(t *testing.T) {
		topo := storm(4)
		var late geom.NodeID = geom.InvalidNode
		for _, n := range Placement(8, 8) {
			if topo.Degree(n) >= 3 {
				late = n
				break
			}
		}
		topo.DisableRouter(late)
		tw := newTickTwins(t, topo, 0.25, Options{})
		if tw.set.c.fsmAt(late) != nil {
			t.Fatal("router dead at Attach has an FSM")
		}
		both := func(f func(side *tickTwin)) { f(&tw.set); f(&tw.scan) }
		var victim geom.NodeID = geom.InvalidNode
		failedAt := int64(-1)
		for i := 0; i < 1500; i++ {
			tw.step(true)
			now := tw.scan.s.Now
			if n, ok := tw.recovering(); ok && victim == geom.InvalidNode {
				victim, failedAt = n, now
				both(func(side *tickTwin) { side.mgr.Submit(reconfig.Event{Kind: reconfig.EvFailRouter, Node: n}) })
				if st := tw.set.c.FSMState(n); st != StateOff {
					t.Fatalf("failed router's FSM is %v", st)
				}
				checkTickMasks(t, tw.set.c)
			}
			if failedAt >= 0 && now == failedAt+300 {
				both(func(side *tickTwin) {
					side.mgr.Submit(reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: victim})
					side.mgr.Submit(reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: late})
				})
				checkTickMasks(t, tw.set.c)
			}
		}
		if victim == geom.InvalidNode {
			t.Fatal("vacuous: no FSM reached S_SB_ACTIVE during the burst")
		}
		if tw.set.c.fsmAt(late) == nil {
			t.Fatal("router recovered after Attach got no FSM")
		}
		tw.drain(60000)
		if len(tw.scan.c.RecoveryRecords()) == 0 {
			t.Fatal("vacuous: no recovery completed")
		}
	})

	// Countdowns in an empty network: a round whose messages are all
	// lost leaves a busy FSM and nothing else, which the tick set must
	// still visit until its retries run out. The latched path
	// runs off the mesh edge, so the timeout's enable dies on its third
	// hop and every retransmission after it, up to the retry limit.
	t.Run("countdown-in-empty-network", func(t *testing.T) {
		const n = geom.NodeID(5)
		tw := newTickTwins(t, topology.NewMesh(4, 4), 0, Options{TDD: 20, Placement: []geom.NodeID{n}})
		for _, side := range []*tickTwin{&tw.set, &tw.scan} {
			c, f := side.c, side.c.fsmAt(n)
			f.seq++
			f.turnBuf = pathOf(geom.Straight, geom.Straight, geom.Straight)
			f.probeOut, f.probeIn = geom.East, geom.North
			f.tDR = network.HopLatency * f.pathLen()
			f.deadline = 40
			c.setState(f, StateDisable)
		}
		for i := 0; i < 2000; i++ {
			tw.step(false)
		}
		if st := tw.scan.c.FSMState(n); st != StateOff || tw.scan.s.Stats.EnablesSent < 30 {
			t.Fatalf("vacuous: FSM ended in %v after %d enables; want the retry limit reached", st, tw.scan.s.Stats.EnablesSent)
		}
	})

}

// BenchmarkTickAllIdle32x32 is idle_mesh_32x32's controller side: a
// healthy 32x32 (369 FSMs) with eight packets buffered, one tickAll per
// op. The clock stands still, so every op sees the same state.
func BenchmarkTickAllIdle32x32(b *testing.B) {
	topo := topology.NewMesh(32, 32)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c := Attach(s, Options{})
	for k := 0; k < 8; k++ {
		n := geom.NodeID(37 + 125*k)
		s.PlacePacket(n, geom.West, 0, s.NewPacket(n, n+1, 0, 5, routing.Route{geom.East}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.tickAll()
	}
}

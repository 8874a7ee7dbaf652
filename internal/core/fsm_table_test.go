package core

// The transition table of the six-state static-bubble counter FSM
// (paper Fig. 5), exercised edge by edge against a live simulator: every
// case arranges one precise router/buffer state, fires exactly one FSM
// input (a counter tick at a chosen cycle, or one control-message
// delivery through the real receive path), and pins the resulting state
// plus the observable side effects (messages sent, fences, bubble
// activation, Stats counters). Timeouts are probed AT the deadline
// boundary — deadline-1 must do nothing, deadline must fire — and the
// S_SB_ACTIVE <-> S_CHECK_PROBE edge is driven around the loop twice,
// since re-entry (a reclaimed bubble whose chain persists) is where
// stale per-round state would surface.

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fsmHarness wires a single static-bubble router's FSM to a live 4x4
// mesh simulator. The simulator is never stepped: the table drives
// tickFSM and processOne directly, with h.at() moving the clock.
type fsmHarness struct {
	t    *testing.T
	s    *network.Sim
	c    *Controller
	topo *topology.Topology
	node geom.NodeID
	r    *network.Router
	f    *fsm
}

func newFSMHarness(t *testing.T, opt Options) *fsmHarness {
	t.Helper()
	topo := topology.NewMesh(4, 4)
	node := topo.ID(geom.Coord{X: 1, Y: 1}) // interior: all four links live
	s := network.New(topo, network.Config{}, nil)
	if opt.TDD == 0 {
		opt.TDD = 20
	}
	opt.Placement = []geom.NodeID{node}
	c := Attach(s, opt)
	return &fsmHarness{t: t, s: s, c: c, topo: topo, node: node, r: &s.Routers[node], f: c.fsmAt(node)}
}

// at moves the simulator clock (the FSM reads time only through s.Now).
func (h *fsmHarness) at(now int64) { h.s.Now = now }

// tick runs one counter tick of the FSM under test.
func (h *fsmHarness) tick() { h.c.tickFSM(h.f) }

// deliver pushes one control message through the real receive path at
// the FSM's router.
func (h *fsmHarness) deliver(m Message) { h.c.processOne(h.node, h.r, h.f, m, nil) }

// stuck places a head-ready single-flit packet into slot `slot` of input
// port `in` at router id, wanting output `out`.
func (h *fsmHarness) stuck(id geom.NodeID, in geom.Direction, slot int, out geom.Direction) *network.Packet {
	h.t.Helper()
	p := h.s.NewPacket(id, h.topo.Neighbor(id, out), 0, 1, routing.Route{out})
	h.s.PlacePacket(id, in, slot, p)
	return p
}

// latch puts the FSM into S_DISABLE exactly as a returned probe would:
// a three-turn path latched, t_DR set, round opened — and, unless
// broken, the originator-side dependence (a packet at probeIn wanting
// probeOut) that disable validation re-checks.
func (h *fsmHarness) latch(withDependence bool) *network.Packet {
	h.t.Helper()
	f := h.f
	f.seq++
	f.turnBuf = pathOf(geom.Straight, geom.Straight, geom.Straight)
	f.probeOut = geom.East
	f.probeIn = geom.North
	f.vnet = 0
	f.tDR = network.HopLatency * f.pathLen()
	h.c.setState(f, StateDisable)
	f.deadline = h.s.Now + f.tDR
	if withDependence {
		return h.stuck(h.node, f.probeIn, 0, f.probeOut)
	}
	return nil
}

// disableReturn is the originator's own disable completing its loop.
func (h *fsmHarness) disableReturn() {
	h.deliver(Message{Type: MsgDisable, Src: h.node, Heading: geom.East, Seq: h.f.seq})
}

// checkProbeReturn is the originator's check_probe completing its loop.
func (h *fsmHarness) checkProbeReturn() {
	h.deliver(Message{Type: MsgCheckProbe, Src: h.node, Heading: geom.East, Seq: h.f.seq})
}

// activate drives latch + disable return: the FSM lands in S_SB_ACTIVE
// with the bubble on and its own fence installed.
func (h *fsmHarness) activate() *network.Packet {
	h.t.Helper()
	dep := h.latch(true)
	h.disableReturn()
	if h.f.state != StateSBActive {
		h.t.Fatalf("activate: state %v after disable return", h.f.state)
	}
	return dep
}

// occupyBubble parks a packet in the (active) bubble.
func (h *fsmHarness) occupyBubble() *network.Packet {
	p := h.s.NewPacket(h.node, h.topo.Neighbor(h.node, geom.East), 0, 1, routing.Route{geom.East})
	h.s.PlaceBubblePacket(h.node, h.f.probeIn, p)
	return p
}

// latchRing places a four-packet dependence cycle around the unit square
// at (1,1)->(2,1)->(2,2)->(1,2) and latches it into the FSM as a
// returned probe would — the rotatable chain the SPIN cases need.
func (h *fsmHarness) latchRing() []geom.NodeID {
	h.t.Helper()
	nodes := []geom.NodeID{
		h.topo.ID(geom.Coord{X: 1, Y: 1}),
		h.topo.ID(geom.Coord{X: 2, Y: 1}),
		h.topo.ID(geom.Coord{X: 2, Y: 2}),
		h.topo.ID(geom.Coord{X: 1, Y: 2}),
	}
	n := len(nodes)
	headings := make([]geom.Direction, n)
	for i := range nodes {
		headings[i] = geom.DirectionBetween(h.topo.Coord(nodes[i]), h.topo.Coord(nodes[(i+1)%n]))
	}
	for i, nd := range nodes {
		in := headings[(i+n-1)%n].Opposite()
		// A multi-lap route: after each rotation the packet still wants
		// the ring's next output (a one-hop route would want ejection and
		// dissolve the chain after the first rotation).
		route := make(routing.Route, 2*n)
		for k := range route {
			route[k] = headings[(i+k)%n]
		}
		p := h.s.NewPacket(nd, nd, 0, 1, route)
		h.s.PlacePacket(nd, in, 0, p)
	}
	f := h.f
	f.seq++
	f.turnBuf = Path{}
	for i := 1; i < n; i++ {
		turn, ok := geom.TurnBetween(headings[i-1], headings[i])
		if !ok {
			h.t.Fatalf("ring step %d is a U-turn", i)
		}
		f.turnBuf = f.turnBuf.Push(turn)
	}
	f.probeOut = headings[0]
	f.probeIn = headings[n-1].Opposite()
	f.vnet = 0
	f.tDR = network.HopLatency * f.pathLen()
	h.c.setState(f, StateDisable)
	f.deadline = h.s.Now + f.tDR
	return nodes
}

func TestFSMTransitionTable(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		// run arranges the precondition state and fires the transition
		// input; intermediate assertions live inside it.
		run  func(h *fsmHarness)
		want State
	}{
		// ---- S_OFF -------------------------------------------------------
		{
			name: "off/empty-router-stays-off",
			run:  func(h *fsmHarness) { h.tick() },
			want: StateOff,
		},
		{
			name: "off/occupied-vc-arms-detection",
			run: func(h *fsmHarness) {
				p := h.stuck(h.node, geom.East, 0, geom.West)
				h.tick()
				if h.f.ptrPkt != p.ID {
					h.t.Fatalf("watch pointer on packet %d, want %d", h.f.ptrPkt, p.ID)
				}
				if h.f.deadline != h.s.Now+h.c.opt.TDD {
					h.t.Fatalf("deadline %d, want now+TDD=%d", h.f.deadline, h.s.Now+h.c.opt.TDD)
				}
			},
			want: StateDD,
		},
		{
			name: "off/occupied-bubble-arms-detection",
			run: func(h *fsmHarness) {
				// A stale occupant left by a torn-down recovery must be
				// watched like any stuck packet.
				h.occupyBubble()
				h.tick()
				if h.f.ptr != network.BubbleIndex {
					h.t.Fatalf("watch pointer %d, want the bubble's %d", h.f.ptr, network.BubbleIndex)
				}
			},
			want: StateDD,
		},
		{
			name: "off/foreign-fence-keeps-parked",
			run: func(h *fsmHarness) {
				h.stuck(h.node, geom.East, 0, geom.West)
				h.r.Fence = network.Fence{Active: true, In: geom.East, Out: geom.West, SrcID: h.node + 1}
				h.tick()
			},
			want: StateOff,
		},

		// ---- S_DD --------------------------------------------------------
		{
			name: "dd/watched-packet-leaves-advances-pointer",
			run: func(h *fsmHarness) {
				p1 := h.stuck(h.node, geom.East, 0, geom.West)
				p2 := h.stuck(h.node, geom.West, 0, geom.East)
				h.tick() // off -> dd, watching one of the two
				watched, other := p1, p2
				if h.f.ptrPkt == p2.ID {
					watched, other = p2, p1
				}
				h.s.RemovePacket(h.node, h.f.ptr)
				h.at(5)
				h.tick()
				if h.f.ptrPkt != other.ID {
					h.t.Fatalf("pointer on %d after %d left, want %d", h.f.ptrPkt, watched.ID, other.ID)
				}
				if h.f.deadline != 5+h.c.opt.TDD {
					h.t.Fatalf("counter not restarted: deadline %d", h.f.deadline)
				}
			},
			want: StateDD,
		},
		{
			name: "dd/router-drains-disarms",
			run: func(h *fsmHarness) {
				h.stuck(h.node, geom.East, 0, geom.West)
				h.tick()
				h.s.RemovePacket(h.node, h.f.ptr)
				h.tick()
			},
			want: StateOff,
		},
		{
			name: "dd/timeout-fires-exactly-at-deadline",
			run: func(h *fsmHarness) {
				h.stuck(h.node, geom.East, 0, geom.West)
				h.tick() // deadline = TDD
				h.at(h.c.opt.TDD - 1)
				h.tick()
				if h.s.Stats.ProbesSent != 0 {
					h.t.Fatal("probe sent one cycle before the threshold expired")
				}
				h.at(h.c.opt.TDD)
				h.tick()
				if h.s.Stats.ProbesSent != 1 {
					h.t.Fatalf("ProbesSent = %d at the deadline, want 1", h.s.Stats.ProbesSent)
				}
				if h.f.probeOut != geom.West {
					h.t.Fatalf("probe sent out %v, want West", h.f.probeOut)
				}
				// Counter restarts with decorrelation jitter in [0,16).
				if d := h.f.deadline - (h.s.Now + h.c.opt.TDD); d < 0 || d >= 16 {
					h.t.Fatalf("post-probe deadline offset %d outside [0,16)", d)
				}
			},
			want: StateDD,
		},
		{
			name: "dd/ejection-wanting-packet-never-probed",
			run: func(h *fsmHarness) {
				// Empty route: OutputOf is Local — waiting on ejection is
				// never a dependence cycle.
				p := h.s.NewPacket(h.node, h.node, 0, 1, nil)
				h.s.PlacePacket(h.node, geom.East, 0, p)
				h.tick()
				h.at(h.c.opt.TDD)
				h.tick()
				if h.s.Stats.ProbesSent != 0 {
					h.t.Fatal("probed an ejection-wanting packet")
				}
				if h.f.deadline != h.s.Now+h.c.opt.TDD {
					h.t.Fatal("counter not restarted after skipping ejection packet")
				}
			},
			want: StateDD,
		},
		{
			name: "dd/probe-return-latches-path-sends-disable",
			run: func(h *fsmHarness) {
				h.stuck(h.node, geom.North, 0, geom.East)
				h.tick()
				seq := h.f.seq
				h.deliver(Message{
					Type: MsgProbe, Src: h.node, Heading: geom.South,
					Turns: pathOf(geom.Straight, geom.LeftTurn, geom.Straight),
					Seq:   seq, OutPort: geom.East,
				})
				if h.s.Stats.DisablesSent != 1 {
					h.t.Fatalf("DisablesSent = %d, want 1", h.s.Stats.DisablesSent)
				}
				if h.f.seq != seq+1 {
					h.t.Fatal("probe return must open a new recovery round")
				}
				if want := int64(network.HopLatency * 4); h.f.tDR != want {
					h.t.Fatalf("tDR = %d, want HopLatency*pathLen = %d", h.f.tDR, want)
				}
				if h.f.probeOut != geom.East || h.f.probeIn != geom.North {
					h.t.Fatalf("latched ports %v/%v, want East/North", h.f.probeOut, h.f.probeIn)
				}
			},
			want: StateDisable,
		},
		{
			name: "dd/foreign-disable-parks-detection",
			run: func(h *fsmHarness) {
				h.stuck(h.node, geom.East, 0, geom.West)
				h.tick() // arm detection first
				// Higher-id SB router's disable passes through: heading
				// East (entered on West), straight turn -> out East; the
				// dependence West->East must exist for acceptance.
				h.stuck(h.node, geom.West, 1, geom.East)
				h.deliver(Message{
					Type: MsgDisable, Src: h.node + 1, Heading: geom.East,
					Turns: pathOf(geom.Straight, geom.Straight), Seq: 1,
				})
				if !h.r.Fence.Active || h.r.Fence.SrcID != h.node+1 {
					h.t.Fatalf("foreign fence not installed: %+v", h.r.Fence)
				}
			},
			want: StateOff,
		},
		{
			name: "off/matching-enable-clears-fence-and-rearms",
			run: func(h *fsmHarness) {
				src := h.node + 1
				h.stuck(h.node, geom.West, 0, geom.East)
				h.r.Fence = network.Fence{Active: true, In: geom.West, Out: geom.East, SrcID: src}
				h.deliver(Message{
					Type: MsgEnable, Src: src, Heading: geom.East,
					Turns: pathOf(geom.Straight, geom.Straight), Seq: 1,
				})
				if h.r.Fence.Active {
					h.t.Fatal("matching enable must clear the fence")
				}
			},
			want: StateDD,
		},

		// ---- S_DISABLE ---------------------------------------------------
		{
			name: "disable/return-activates-bubble",
			run: func(h *fsmHarness) {
				h.latch(true)
				h.disableReturn()
				if !h.r.Bubble.Active || h.r.Bubble.InPort != h.f.probeIn {
					h.t.Fatalf("bubble not on at probeIn: %+v", h.r.Bubble)
				}
				if !h.r.Fence.Active || h.r.Fence.SrcID != h.node {
					h.t.Fatalf("own fence not installed: %+v", h.r.Fence)
				}
				if h.s.Stats.DeadlockRecoveries != 1 {
					h.t.Fatalf("DeadlockRecoveries = %d, want 1", h.s.Stats.DeadlockRecoveries)
				}
			},
			want: StateSBActive,
		},
		{
			name: "disable/return-ignored-when-dependence-gone",
			run: func(h *fsmHarness) {
				h.latch(false)
				h.disableReturn()
				if h.r.Bubble.Active {
					h.t.Fatal("bubble turned on without a validated dependence")
				}
			},
			want: StateDisable,
		},
		{
			name: "disable/return-ignored-under-foreign-fence",
			run: func(h *fsmHarness) {
				h.latch(true)
				h.r.Fence = network.Fence{Active: true, In: geom.West, Out: geom.East, SrcID: h.node + 1}
				h.disableReturn()
				if h.r.Fence.SrcID != h.node+1 {
					h.t.Fatal("foreign fence overwritten")
				}
			},
			want: StateDisable,
		},
		{
			name: "disable/stale-seq-return-dropped",
			run: func(h *fsmHarness) {
				h.latch(true)
				h.deliver(Message{Type: MsgDisable, Src: h.node, Heading: geom.East, Seq: h.f.seq - 1})
			},
			want: StateDisable,
		},
		{
			name: "disable/timeout-at-boundary-sends-enable",
			run: func(h *fsmHarness) {
				h.latch(true)
				h.at(h.f.deadline - 1)
				h.tick()
				if h.s.Stats.EnablesSent != 0 || h.f.state != StateDisable {
					h.t.Fatal("fired one cycle before the disable timeout")
				}
				h.at(h.f.deadline)
				h.tick()
				if h.s.Stats.EnablesSent != 1 {
					h.t.Fatalf("EnablesSent = %d at the deadline, want 1", h.s.Stats.EnablesSent)
				}
			},
			want: StateEnable,
		},

		// ---- S_SB_ACTIVE -------------------------------------------------
		{
			name: "sbactive/occupant-latches-and-renews-guard",
			run: func(h *fsmHarness) {
				h.activate()
				h.occupyBubble()
				h.at(10)
				h.tick()
				if !h.f.bubbleWasOccupied {
					h.t.Fatal("occupant not latched")
				}
				if h.f.deadline != 10+h.c.sbActiveGuard(h.f) {
					h.t.Fatal("guard not renewed on fresh occupant")
				}
			},
			want: StateSBActive,
		},
		{
			name: "sbactive/reclaim-sends-check-probe",
			run: func(h *fsmHarness) {
				h.activate()
				p := h.occupyBubble()
				h.tick() // latch the occupant
				h.s.RemovePacket(h.node, network.BubbleIndex)
				_ = p
				h.tick()
				if h.r.Bubble.Active {
					h.t.Fatal("bubble still on after reclaim")
				}
				if h.s.Stats.CheckProbesSent != 1 {
					h.t.Fatalf("CheckProbesSent = %d, want 1", h.s.Stats.CheckProbesSent)
				}
			},
			want: StateCheckProbe,
		},
		{
			name: "sbactive/vanished-dependence-reclaims",
			run: func(h *fsmHarness) {
				dep := h.activate()
				// The congested-not-deadlocked chain drains through regular
				// VCs without ever touching the bubble.
				vc := h.r.VCAt(h.f.probeIn, 0, 0)
				if vc.Pkt != dep {
					h.t.Fatal("dependence packet not where expected")
				}
				h.s.RemovePacket(h.node, int(h.f.probeIn)*network.SlotsPerPort)
				h.tick()
			},
			want: StateCheckProbe,
		},
		{
			name: "sbactive/guard-expiry-empty-bubble-tears-down",
			run: func(h *fsmHarness) {
				h.activate() // dependence stays put, bubble never used
				h.at(h.f.deadline)
				h.tick()
			},
			want: StateCheckProbe,
		},
		{
			name: "sbactive/guard-expiry-occupied-bubble-sends-enable",
			run: func(h *fsmHarness) {
				h.activate()
				h.occupyBubble()
				h.tick() // latch occupant, renew guard
				h.at(h.f.deadline)
				h.tick() // wedged occupant: tear down, occupant stays resident
				if h.r.Bubble.Active {
					h.t.Fatal("bubble still on after teardown")
				}
				if h.r.Bubble.VC.Pkt == nil {
					h.t.Fatal("teardown must not evict the resident packet")
				}
				if h.s.Stats.EnablesSent != 1 {
					h.t.Fatalf("EnablesSent = %d, want 1", h.s.Stats.EnablesSent)
				}
			},
			want: StateEnable,
		},
		{
			name: "sbactive/check-probe-ablation-goes-straight-to-enable",
			opt:  Options{DisableCheckProbe: true},
			run: func(h *fsmHarness) {
				h.activate()
				h.occupyBubble()
				h.tick()
				h.s.RemovePacket(h.node, network.BubbleIndex)
				h.tick()
				if h.s.Stats.CheckProbesSent != 0 {
					h.t.Fatal("check_probe sent despite the ablation")
				}
			},
			want: StateEnable,
		},

		// ---- S_CHECK_PROBE (re-entrant edges) ----------------------------
		{
			name: "checkprobe/return-reactivates-bubble-twice",
			run: func(h *fsmHarness) {
				h.activate()
				for round := 1; round <= 2; round++ {
					h.occupyBubble()
					h.tick() // latch
					h.s.RemovePacket(h.node, network.BubbleIndex)
					h.tick() // reclaim -> S_CHECK_PROBE
					if h.f.state != StateCheckProbe {
						h.t.Fatalf("round %d: state %v after reclaim", round, h.f.state)
					}
					h.checkProbeReturn() // chain persists -> re-enter S_SB_ACTIVE
					if h.f.state != StateSBActive || !h.r.Bubble.Active {
						h.t.Fatalf("round %d: check_probe return did not re-activate (state %v)", round, h.f.state)
					}
					if h.f.bubbleWasOccupied {
						h.t.Fatalf("round %d: stale occupant latch survived re-entry", round)
					}
				}
				if h.s.Stats.CheckProbesSent != 2 {
					h.t.Fatalf("CheckProbesSent = %d, want 2", h.s.Stats.CheckProbesSent)
				}
			},
			want: StateSBActive,
		},
		{
			name: "checkprobe/stale-seq-return-dropped",
			run: func(h *fsmHarness) {
				h.activate()
				h.occupyBubble()
				h.tick()
				h.s.RemovePacket(h.node, network.BubbleIndex)
				h.tick()
				h.deliver(Message{Type: MsgCheckProbe, Src: h.node, Heading: geom.East, Seq: h.f.seq - 1})
			},
			want: StateCheckProbe,
		},
		{
			name: "checkprobe/timeout-at-boundary-sends-enable",
			run: func(h *fsmHarness) {
				h.activate()
				h.occupyBubble()
				h.tick()
				h.s.RemovePacket(h.node, network.BubbleIndex)
				h.tick() // -> S_CHECK_PROBE, deadline = now + tDR
				h.at(h.f.deadline - 1)
				h.tick()
				if h.f.state != StateCheckProbe {
					h.t.Fatal("fired one cycle before the check_probe timeout")
				}
				h.at(h.f.deadline)
				h.tick()
				if h.s.Stats.EnablesSent != 1 {
					h.t.Fatalf("EnablesSent = %d, want 1", h.s.Stats.EnablesSent)
				}
			},
			want: StateEnable,
		},

		// ---- S_ENABLE ----------------------------------------------------
		{
			name: "enable/return-clears-fence-resumes-detection",
			run: func(h *fsmHarness) {
				// Start past cycle 0: recoveryStart == 0 means "no round
				// open" to the record keeper.
				h.at(1)
				h.activate()
				h.occupyBubble()
				h.tick()
				h.at(h.f.deadline)
				h.tick() // guard expiry with occupied bubble -> S_ENABLE
				h.deliver(Message{Type: MsgEnable, Src: h.node, Heading: geom.East, Seq: h.f.seq})
				if h.r.Fence.Active {
					h.t.Fatal("own fence not cleared on enable return")
				}
				if recs := h.c.RecoveryRecords(); len(recs) != 1 || recs[0].PathLen != 4 {
					h.t.Fatalf("recovery records = %+v, want one with PathLen 4", recs)
				}
				// The dependence packet and the stale bubble occupant are
				// still buffered: detection must resume, not switch off.
			},
			want: StateDD,
		},
		{
			name: "enable/return-on-drained-router-switches-off",
			run: func(h *fsmHarness) {
				dep := h.latch(true)
				h.disableReturn()
				vc := h.r.VCAt(h.f.probeIn, 0, 0)
				if vc.Pkt != dep {
					h.t.Fatal("dependence packet not where expected")
				}
				h.s.RemovePacket(h.node, int(h.f.probeIn)*network.SlotsPerPort)
				h.tick() // vanished dependence -> S_CHECK_PROBE
				h.at(h.f.deadline)
				h.tick() // timeout -> S_ENABLE
				h.deliver(Message{Type: MsgEnable, Src: h.node, Heading: geom.East, Seq: h.f.seq})
			},
			want: StateOff,
		},
		{
			name: "enable/timeout-at-boundary-retransmits",
			run: func(h *fsmHarness) {
				h.latch(true)
				h.at(h.f.deadline)
				h.tick() // disable timeout -> S_ENABLE, EnablesSent = 1
				h.at(h.f.deadline - 1)
				h.tick()
				if h.s.Stats.EnablesSent != 1 {
					h.t.Fatal("retransmitted one cycle early")
				}
				h.at(h.f.deadline)
				h.tick()
				if h.s.Stats.EnablesSent != 2 {
					h.t.Fatalf("EnablesSent = %d after retransmission deadline, want 2", h.s.Stats.EnablesSent)
				}
				if h.f.enableRetries != 1 {
					h.t.Fatalf("enableRetries = %d, want 1", h.f.enableRetries)
				}
			},
			want: StateEnable,
		},
		{
			name: "enable/retry-limit-abandons-round",
			run: func(h *fsmHarness) {
				h.latch(true)
				h.at(h.f.deadline)
				h.tick() // -> S_ENABLE
				h.f.enableRetries = 32
				sent := h.s.Stats.EnablesSent
				h.at(h.f.deadline)
				h.tick() // 33rd retry: abandon, resume detection
				if h.s.Stats.EnablesSent != sent {
					h.t.Fatal("abandoning round must not retransmit")
				}
				// The dependence packet is still buffered: back to S_DD.
			},
			want: StateDD,
		},

		// ---- SPIN mode ---------------------------------------------------
		{
			name: "spin/disable-return-rotates-and-checks",
			opt:  Options{Spin: true},
			run: func(h *fsmHarness) {
				h.latchRing()
				h.disableReturn()
				if h.s.Stats.SpinRotations != 1 {
					h.t.Fatalf("SpinRotations = %d, want 1", h.s.Stats.SpinRotations)
				}
				if h.s.Stats.DeadlockRecoveries != 1 || h.s.Stats.CheckProbesSent != 1 {
					h.t.Fatalf("recoveries %d / check_probes %d, want 1/1",
						h.s.Stats.DeadlockRecoveries, h.s.Stats.CheckProbesSent)
				}
				if h.r.Bubble.Active {
					h.t.Fatal("SPIN must not switch the bubble on")
				}
			},
			want: StateCheckProbe,
		},
		{
			name: "spin/check-probe-return-re-rotates",
			opt:  Options{Spin: true},
			run: func(h *fsmHarness) {
				h.latchRing()
				h.disableReturn()
				// The rotation stamps ReadyAt = now + HopLatency; the next
				// rotation needs the heads ready again.
				h.at(h.s.Now + network.HopLatency)
				h.checkProbeReturn()
				if h.s.Stats.SpinRotations != 2 {
					h.t.Fatalf("SpinRotations = %d, want 2", h.s.Stats.SpinRotations)
				}
				if h.s.Stats.CheckProbesSent != 2 {
					h.t.Fatalf("CheckProbesSent = %d, want 2", h.s.Stats.CheckProbesSent)
				}
			},
			want: StateCheckProbe,
		},
		{
			name: "spin/check-probe-return-chain-gone-enables",
			opt:  Options{Spin: true},
			run: func(h *fsmHarness) {
				nodes := h.latchRing()
				h.disableReturn()
				h.at(h.s.Now + network.HopLatency)
				// Break the ring at its second router.
				r2 := &h.s.Routers[nodes[1]]
				for _, in := range geom.LinkDirs {
					for i := range r2.In[in] {
						h.s.RemovePacket(nodes[1], int(in)*network.SlotsPerPort+i)
					}
				}
				h.checkProbeReturn()
				if h.s.Stats.SpinRotations != 1 {
					h.t.Fatalf("SpinRotations = %d, want 1 (no rotation of a broken chain)", h.s.Stats.SpinRotations)
				}
				if h.s.Stats.EnablesSent != 1 {
					h.t.Fatalf("EnablesSent = %d, want 1", h.s.Stats.EnablesSent)
				}
			},
			want: StateEnable,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newFSMHarness(t, tc.opt)
			tc.run(h)
			if h.f.state != tc.want {
				t.Fatalf("final state %v, want %v", h.f.state, tc.want)
			}
		})
	}
}

// TestFSMSpinRotationMovesEveryPacket pins the SPIN rotation semantics
// end to end: after one rotation each ring slot holds its predecessor's
// packet with its hop count advanced.
func TestFSMSpinRotationMovesEveryPacket(t *testing.T) {
	h := newFSMHarness(t, Options{Spin: true})
	nodes := h.latchRing()
	n := len(nodes)
	before := make([]*network.Packet, n)
	headings := make([]geom.Direction, n)
	for i := range nodes {
		headings[i] = geom.DirectionBetween(h.topo.Coord(nodes[i]), h.topo.Coord(nodes[(i+1)%n]))
	}
	for i, nd := range nodes {
		in := headings[(i+n-1)%n].Opposite()
		before[i] = h.s.Routers[nd].VCAt(in, 0, 0).Pkt
	}
	h.disableReturn()
	for i, nd := range nodes {
		in := headings[(i+n-1)%n].Opposite()
		got := h.s.Routers[nd].VCAt(in, 0, 0).Pkt
		want := before[(i+n-1)%n]
		if got != want {
			t.Fatalf("slot %d holds packet %v, want predecessor's %v", i, got, want)
		}
		if got.Hop != 1 {
			t.Fatalf("slot %d packet hop = %d, want 1", i, got.Hop)
		}
	}
}

package core

import (
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/network"
)

// Options configures the Static Bubble recovery controller.
type Options struct {
	// TDD is the deadlock-detection threshold in cycles (the only
	// configurable parameter of the design; Table II uses 34). Default 34.
	TDD int64
	// Placement overrides the set of static-bubble routers; nil selects
	// the Section III placement algorithm for the attached mesh.
	Placement []geom.NodeID
	// DisableCheckProbe turns off the check_probe fast-path (an ablation:
	// recovery then re-detects residual deadlocks with fresh probes).
	DisableCheckProbe bool
	// Spin selects the follow-up work's recovery action (SPIN, HPCA'18):
	// when the disable returns, instead of switching a spare buffer on
	// and rotating the ring through it, every packet on the latched cycle
	// moves one hop forward *simultaneously* — the cycle's own buffers
	// provide the space, so no static bubble is needed and recovery
	// capacity can never be exhausted by stranded occupants. Detection,
	// probes, disables, and enables are identical to Static Bubble.
	Spin bool
	// Perturb, when non-nil, intercepts every control-message
	// transmission (see Perturber): internal/perturb implements loss,
	// delay jitter, reordering, and duplication knobs over it. Nil keeps
	// the transport exact, with zero overhead beyond one nil check.
	Perturb Perturber
}

func (o Options) withDefaults() Options {
	if o.TDD == 0 {
		o.TDD = 34
	}
	return o
}

// Controller binds Static Bubble recovery to a network simulator: it owns
// the per-SB-router FSMs and the in-flight control messages, and runs as
// simulator hooks (message transport before allocation, FSM counters
// after).
type Controller struct {
	sim *network.Sim
	opt Options
	// placed is the full intended placement, including routers that were
	// dead at Attach time: if one recovers at runtime, RouterRecovered
	// arms its bubble and creates its FSM on the spot.
	placed map[geom.NodeID]bool
	// The tick set (DESIGN.md §7). act is the stepper's active summary
	// (Sim.ActiveSummary: router n at bit n); fsms, sb and busy are
	// indexed the same way: fsms[n] is n's FSM (nil where there is none),
	// its sb bit says the FSM exists, its busy bit that its state is not
	// StateOff (setState keeps it).
	act      []uint64
	fsms     []*fsm
	sb, busy []uint64
	msgs     []Message
	// recoveryDurations records, per completed recovery round, the cycles
	// from the disable's return (bubble on) to the enable's return
	// (fences cleared) and the latched path length in hops.
	recoveryDurations []RecoveryRecord

	// dueBuf/reqBuf/spinChain/spinPkts are per-cycle scratch reused
	// across Steps.
	dueBuf    []Message
	reqBuf    []outReq
	spinChain []spinLink
	spinPkts  []*network.Packet
}

// PrewarmMessages reserves every controller-side growable — the
// in-flight list, the per-cycle due/request and SPIN scratch, and the
// recovery-record log — to n entries, so a probe storm grows none of
// them toward its high-water inside a measured window. Like
// Sim.PrewarmPool it only reserves storage: it draws no randomness and
// moves no state, so the simulated trajectory is unchanged. Benchmark
// scenarios with a zero-allocation contract call it at build time.
func (c *Controller) PrewarmMessages(n int) {
	c.msgs = slices.Grow(c.msgs, n)
	c.dueBuf = slices.Grow(c.dueBuf, n)
	c.reqBuf = slices.Grow(c.reqBuf, n)
	c.recoveryDurations = slices.Grow(c.recoveryDurations, n)
	c.spinChain = slices.Grow(c.spinChain, n)
	c.spinPkts = slices.Grow(c.spinPkts, n)
}

// RecoveryRecord describes one completed recovery round.
type RecoveryRecord struct {
	Node     geom.NodeID
	PathLen  int64 // hops of the latched dependency cycle
	Duration int64 // cycles from recovery start to enable return
}

// Attach installs Static Bubble on s: marks the placement routers as
// bubble-capable and registers the protocol hooks. The topology's bubble
// routers may themselves be faulty; their FSMs simply never run (the
// coverage corollary still holds: a dead router breaks every chain
// through it).
func Attach(s *network.Sim, opt Options) *Controller {
	opt = opt.withDefaults()
	placement := opt.Placement
	if placement == nil {
		placement = Placement(s.Topo.Width(), s.Topo.Height())
	}
	c := &Controller{
		sim:    s,
		opt:    opt,
		placed: make(map[geom.NodeID]bool, len(placement)),
	}
	c.act = s.ActiveSummary()
	c.fsms = make([]*fsm, len(s.Routers))
	c.sb = make([]uint64, len(c.act))
	c.busy = make([]uint64, len(c.act))
	for _, n := range placement {
		c.placed[n] = true
		if s.Topo.RouterAlive(n) {
			s.Routers[n].Bubble.Present = true
			c.addFSM(n)
		}
	}
	s.PreCycle = append(s.PreCycle, func(sim *network.Sim) { c.transport() })
	s.PostCycle = append(s.PostCycle, func(sim *network.Sim) { c.tickAll() })
	return c
}

// addFSM gives static-bubble router n a fresh FSM, with its deterministic
// jitter seed (an LCG stream keyed by the node id).
func (c *Controller) addFSM(n geom.NodeID) {
	c.fsms[n] = &fsm{node: n, rngState: uint64(n)*2654435761 + 0x9e3779b97f4a7c15}
	c.sb[n>>6] |= 1 << (uint(n) & 63)
}

// fsmAt returns router n's FSM, nil unless n is a static-bubble router.
func (c *Controller) fsmAt(n geom.NodeID) *fsm { return c.fsms[n] }

// setState is the one place an FSM's state is written; it keeps the busy
// mask's invariant (bit set iff state != StateOff).
func (c *Controller) setState(f *fsm, st State) {
	f.state = st
	w, m := f.node>>6, uint64(1)<<(uint(f.node)&63)
	c.busy[w] &^= m
	if st != StateOff {
		c.busy[w] |= m
	}
}

// tickSet returns word w of the set of FSMs that can act this cycle:
// those not in StateOff, and those whose router is in the active
// summary. Every site that buffers a packet raises that bit (arrivals
// granted earlier in this cycle included) and only a sweep that finds
// the router empty retires it, so an FSM outside the set is in StateOff
// with OccupiedNonLocal() == 0: its tick would return without effect.
func (c *Controller) tickSet(w int) uint64 { return c.act[w]&c.sb[w] | c.busy[w] }

// FSMState reports the recovery state of the FSM at node n (StateOff for
// non-SB routers), for tests and instrumentation.
func (c *Controller) FSMState(n geom.NodeID) State {
	if uint(n) < uint(len(c.fsms)) && c.fsmAt(n) != nil {
		return c.fsmAt(n).state
	}
	return StateOff
}

// InFlightMessages returns the number of control messages currently
// traversing the network.
func (c *Controller) InFlightMessages() int { return len(c.msgs) }

// RecoveryRecords returns one record per completed recovery round
// (disable return through enable return), for instrumentation of
// resolution latency versus deadlocked-path length (Table I).
func (c *Controller) RecoveryRecords() []RecoveryRecord {
	return append([]RecoveryRecord(nil), c.recoveryDurations...)
}

// BubbleRouters returns the attached static-bubble routers in id order.
func (c *Controller) BubbleRouters() []geom.NodeID {
	var out []geom.NodeID
	for _, f := range c.fsms {
		if f != nil {
			out = append(out, f.node)
		}
	}
	return out
}

// TickMasks returns the controller's tick-set masks, read-only, router n
// at bit n as in Sim.ActiveSummary: sb marks the routers that have
// an FSM, busy those whose FSM is not in StateOff. For the validate
// package, which checks both against the FSMs themselves.
func (c *Controller) TickMasks() (sb, busy []uint64) { return c.sb, c.busy }

// --- reconfig.SchemeHandler ------------------------------------------------
//
// The controller implements reconfig's SchemeHandler interface (duck
// typed — core must not import reconfig, whose tests import core) so a
// reconfig.Manager can keep the protocol state consistent under runtime
// failures and recoveries. Without these hooks a router dying
// mid-recovery leaves permanent residue: its FSM wedges in S_SB_ACTIVE
// (ticked every cycle forever), and the fences its
// disable installed elsewhere have no enable left to clear them, so the
// fenced in→out turns block traffic until the end of the run.

// RouterFailed records that router n was powered off or died abruptly:
// its FSM resets to S_OFF, its local fence and bubble activation are
// cleared, and every fence its in-progress recovery round installed
// elsewhere is swept (the matching enable can never arrive), so
// previously fenced traffic re-arbitrates at the next allocation.
func (c *Controller) RouterFailed(n geom.NodeID) {
	s := c.sim
	r := &s.Routers[n]
	r.Fence = network.Fence{}
	r.Bubble.Active = false
	if f := c.fsmAt(n); f != nil {
		c.reset(f)
	}
	c.sweepFences(n)
}

// RouterRecovered records that router n came back: any stale residue at
// the revived router is cleared, and if n is a placement router its
// bubble is re-armed and its FSM (re)created — including routers that
// were dead at Attach time and never had one.
func (c *Controller) RouterRecovered(n geom.NodeID) {
	s := c.sim
	r := &s.Routers[n]
	r.Fence = network.Fence{}
	r.Bubble.Active = false
	if !c.placed[n] {
		return
	}
	r.Bubble.Present = true
	if f := c.fsmAt(n); f != nil {
		c.reset(f)
		return
	}
	c.addFSM(n)
}

// sweepFences clears every fence installed by src's recovery rounds.
// Used when src dies (RouterFailed) and when src abandons an enable
// whose latched path broke mid-round — in both cases no enable will ever
// traverse the path again, and a fence that nothing clears is a
// permanent partial deadlock.
func (c *Controller) sweepFences(src geom.NodeID) {
	s := c.sim
	for id := range s.Routers {
		r := &s.Routers[id]
		if r.Fence.Active && r.Fence.SrcID == src {
			// A parked FSM at id resumes detection on its next tick
			// (StateOff re-scans occupancy once the fence is gone), and
			// the fused pass reads the fence live, so fenced traffic
			// re-arbitrates at the next allocation.
			r.Fence = network.Fence{}
		}
	}
}

// dependenceExists reports whether at least one VC of vnet at router
// node's input port `in` holds a packet that wants output port `out` —
// the buffer-dependence check used by disable and check_probe validation.
func (c *Controller) dependenceExists(node geom.NodeID, in geom.Direction, vnet int, out geom.Direction) bool {
	if !in.IsLink() {
		return false
	}
	r := &c.sim.Routers[node]
	for w := c.chainBufs(node, in, vnet); w != 0; w &= w - 1 {
		if c.sim.OutputOf(r.Buf(bits.TrailingZeros64(w)).Pkt, node) == out {
			return true
		}
	}
	return false
}

// chainBufs returns the occupied buffers of vnet at router node's input
// port in, plus an occupied bubble serving in — a stranded occupant is
// part of the dependence picture too (rule #8). Walked in ascending
// candidate index, the bubble comes last.
func (c *Controller) chainBufs(node geom.NodeID, in geom.Direction, vnet int) uint64 {
	occ := c.sim.OccupancyMirror(node)
	w := occ & network.VnetSlots(in, vnet)
	if b := &c.sim.Routers[node].Bubble; b.Present && b.InPort == in {
		w |= occ & (1 << network.BubbleIndex)
	}
	return w
}

// send originates a control message from a static-bubble router out of
// port `out` with the given remaining turns. Control messages occupy the
// link for one cycle with priority over flits and arrive at the neighbor
// after router + link latency.
func (c *Controller) send(src geom.NodeID, typ MsgType, vnet int, out geom.Direction, turns Path, seq int64) {
	c.forward(Message{Type: typ, Src: src, Vnet: vnet, Turns: turns, Seq: seq, OutPort: out}, src, out)
}

// forward relays m (already updated with its remaining turns) out of
// router `at` through port `out`. On a dead link the message is lost and
// the originating FSM's timeout cleans up.
func (c *Controller) forward(m Message, at geom.NodeID, out geom.Direction) {
	s := c.sim
	if !s.Topo.HasLink(at, out) {
		return
	}
	s.UseLink(at, out, m.Type.linkClass())
	m.At = s.Topo.Neighbor(at, out)
	m.Heading = out
	m.NextAt = s.Now + network.HopLatency
	c.transmit(m, at, out)
}

// transport processes every control message due this cycle, router by
// router, applying the output-mux priority (check_probe > disable/enable
// > probe) and higher-node-id tie-breaking of Section IV-C.
func (c *Controller) transport() {
	s := c.sim
	now := s.Now
	due := c.dueBuf[:0]
	keep := c.msgs[:0]
	for _, m := range c.msgs {
		if m.NextAt == now {
			due = append(due, m)
		} else {
			keep = append(keep, m)
		}
	}
	c.msgs = keep
	c.dueBuf = due[:0]
	if len(due) == 0 {
		return
	}
	// Stable insertion sort by destination router: groups each router's
	// messages contiguously in ascending router-id order while keeping
	// their arrival (queue) order within a router, with no per-cycle map
	// or sort.Slice allocation. Due sets are tiny (a burst of probe
	// forks), so quadratic worst case is irrelevant.
	for i := 1; i < len(due); i++ {
		m := due[i]
		j := i
		for j > 0 && due[j-1].At > m.At {
			due[j] = due[j-1]
			j--
		}
		due[j] = m
	}
	for lo := 0; lo < len(due); {
		hi := lo + 1
		for hi < len(due) && due[hi].At == due[lo].At {
			hi++
		}
		c.processAt(due[lo].At, due[lo:hi])
		lo = hi
	}
}

// outReq is a forwarding request competing for an output port.
type outReq struct {
	out geom.Direction
	m   Message
}

// processAt handles all messages arriving at router id this cycle.
// Forwarded winners go back on c.msgs; every other message — on a dead
// router, losing arbitration, or consumed by the receive rules — is
// simply not carried on.
func (c *Controller) processAt(id geom.NodeID, msgs []Message) {
	s := c.sim
	if !s.Topo.RouterAlive(id) {
		return // router died with messages in flight: they are lost
	}
	r := &s.Routers[id]
	f := c.fsmAt(id) // nil unless id is a static-bubble router
	reqs := c.reqBuf[:0]
	for _, m := range msgs {
		reqs = c.processOne(id, r, f, m, reqs)
	}
	// Output arbitration: one winner per port, losers dropped.
	var winners [geom.NumPorts]*Message
	for i := range reqs {
		rq := &reqs[i]
		if cur := winners[rq.out]; cur == nil || c.beats(&rq.m, cur, r) {
			winners[rq.out] = &rq.m
		}
	}
	for _, out := range geom.LinkDirs {
		if m := winners[out]; m != nil {
			c.forward(*m, id, out)
		}
	}
	c.reqBuf = reqs[:0]
}

// beats reports whether message a wins output arbitration against b at a
// router with fence state r.Fence.
func (c *Controller) beats(a, b *Message, r *network.Router) bool {
	pa, pb := a.Type.priority(), b.Type.priority()
	if pa != pb {
		return pa > pb
	}
	if a.Type != b.Type {
		// disable vs enable at the same priority: if the is_deadlock bit
		// is set the enable wins, else the disable (Section IV-C).
		if r.Fence.Active {
			return a.Type == MsgEnable
		}
		return a.Type == MsgDisable
	}
	return a.Src > b.Src
}

// processOne applies the per-type receive rules, appending any forwarding
// request for m (or probe forks) to reqs and returning it. A message
// absent from the returned reqs was consumed or dropped.
func (c *Controller) processOne(id geom.NodeID, r *network.Router, f *fsm, m Message, reqs []outReq) []outReq {
	s := c.sim
	switch m.Type {
	case MsgProbe:
		if id == m.Src {
			// Back at the originator: a return in S_DD latches the path;
			// any other state means recovery is already underway and the
			// copy is dropped (Section IV-B).
			if f != nil && f.state == StateDD {
				c.probeReturned(f, m)
			}
			return reqs
		}
		if f != nil && m.Src < id && !f.state.inRecovery() && r.Buf(network.BubbleIndex).Pkt == nil {
			// A static-bubble router drops probes from lower-id SB
			// routers; its own probe will resolve the shared cycle. It
			// abstains — forwards them — when it cannot act itself (bubble
			// still holding a stale occupant, or committed to another
			// chain); otherwise a few wedged high-id routers would starve
			// every cycle they sit on.
			return reqs
		}
		return c.forkProbe(id, r, m, reqs)

	case MsgDisable:
		if m.Turns.Len() == 0 {
			if f != nil && id == m.Src && f.state == StateDisable && m.Seq == f.seq {
				c.disableReturned(f)
			}
			return reqs
		}
		if f != nil && f.state.inRecovery() {
			return reqs // SB router committed to its own recovery
		}
		turn := m.Turns.At(0)
		out := turn.Apply(m.Heading)
		if !out.IsLink() || !c.dependenceExists(id, m.inPort(), m.Vnet, out) {
			return reqs // dependence vanished: drop; sender times out
		}
		if r.Fence.Active {
			return reqs // already part of another fenced chain
		}
		r.Fence = network.Fence{Active: true, In: m.inPort(), Out: out, SrcID: m.Src}
		if f != nil {
			// An SB router accepting a foreign (higher-id) disable parks
			// its own detection until the enable arrives (Section IV-B).
			c.setState(f, StateOff)
		}
		m.Turns = m.Turns.Pop()
		return append(reqs, outReq{out, m})

	case MsgEnable:
		if m.Turns.Len() == 0 {
			if f != nil && id == m.Src && f.state == StateEnable && m.Seq == f.seq {
				c.enableReturned(f)
			}
			return reqs
		}
		// Enables are always forwarded, even through a static-bubble
		// router busy with its own recovery. (The paper drops them there;
		// we found that wedges crossing chains — the dropped chain's
		// fences can block the very recovery the dropping router is
		// waiting on. Forwarding is safe: an enable only clears fences
		// whose source-id matches.)
		turn := m.Turns.At(0)
		out := turn.Apply(m.Heading)
		if !out.IsLink() {
			return reqs
		}
		if r.Fence.Active && r.Fence.SrcID == m.Src {
			r.Fence = network.Fence{}
			if f != nil && f.state == StateOff {
				// Resume detection now that the foreign chain cleared.
				if ptr, pid, ok := nextOccupiedVC(s, r, -1); ok {
					c.setState(f, StateDD)
					f.ptr, f.ptrPkt = ptr, pid
					f.deadline = s.Now + c.opt.TDD
				}
			}
		}
		// A mismatched enable is forwarded untouched, not dropped
		// (Section IV-B).
		m.Turns = m.Turns.Pop()
		return append(reqs, outReq{out, m})

	case MsgCheckProbe:
		if m.Turns.Len() == 0 {
			if f != nil && id == m.Src && f.state == StateCheckProbe && m.Seq == f.seq {
				c.checkProbeReturned(f)
			}
			return reqs
		}
		// Forwarded only while this router is still part of the fenced
		// chain and the dependence persists (Section IV-A3).
		if !(r.Fence.Active && r.Fence.SrcID == m.Src && r.Fence.In == m.inPort()) {
			return reqs
		}
		if !c.dependenceExists(id, r.Fence.In, m.Vnet, r.Fence.Out) {
			return reqs
		}
		out := m.Turns.At(0).Apply(m.Heading)
		if out != r.Fence.Out {
			return reqs
		}
		m.Turns = m.Turns.Pop()
		return append(reqs, outReq{out, m})
	}
	return reqs
}

// forkProbe implements the Probe Fork Unit: if every VC of the probe's
// vnet at its input port is occupied, the probe forks out of every
// (non-ejection) output port those packets are waiting on, appending the
// corresponding turn; otherwise the chain is broken here and the probe is
// dropped.
func (c *Controller) forkProbe(id geom.NodeID, r *network.Router, m Message, reqs []outReq) []outReq {
	s := c.sim
	in := m.inPort()
	w := c.chainBufs(id, in, m.Vnet)
	if lane := network.VnetSlots(in, m.Vnet); w&lane != lane {
		return reqs // a free VC means no deadlock through this port
	}
	// Every occupant extends the chain, a bubble occupant included.
	var wanted [geom.NumPorts]bool
	for ; w != 0; w &= w - 1 {
		if out := s.OutputOf(r.Buf(bits.TrailingZeros64(w)).Pkt, id); out.IsLink() {
			wanted[out] = true
		}
	}
	for _, out := range geom.LinkDirs {
		if !wanted[out] {
			continue
		}
		turn, ok := geom.TurnBetween(m.Heading, out)
		if !ok {
			continue // U-turns cannot occur in a dependence chain
		}
		if m.Turns.Len() >= MaxTurns {
			continue // turn capacity exhausted: drop (Section IV-B)
		}
		fork := m
		fork.Turns = m.Turns.Push(turn)
		reqs = append(reqs, outReq{out, fork})
	}
	return reqs
}

// --- FSM events -----------------------------------------------------------

func (c *Controller) probeReturned(f *fsm, m Message) {
	s := c.sim
	s.Stats.ProbesReturned++
	f.seq++ // new recovery round
	f.turnBuf = m.Turns
	f.tDR = network.HopLatency * f.pathLen()
	f.probeIn = m.inPort()
	f.probeOut = m.OutPort
	f.vnet = m.Vnet
	c.send(f.node, MsgDisable, f.vnet, f.probeOut, f.turnBuf, f.seq)
	s.Stats.DisablesSent++
	c.setState(f, StateDisable)
	f.deadline = s.Now + f.tDR
}

func (c *Controller) disableReturned(f *fsm) {
	s := c.sim
	r := &s.Routers[f.node]
	// The sender validates its own dependence too; if the chain moved on,
	// the disable is ignored and the S_DISABLE timeout sends the enable.
	// Likewise if a foreign chain fenced this router in the meantime: we
	// must not overwrite that fence.
	if !c.dependenceExists(f.node, f.probeIn, f.vnet, f.probeOut) {
		return
	}
	if r.Fence.Active && r.Fence.SrcID != f.node {
		return
	}
	if c.opt.Spin {
		// SPIN-style recovery: rotate the whole latched cycle one hop in
		// place. The fences stay up and a check_probe retraces the path;
		// if it returns, the same chain persists and is rotated again —
		// the same fences-held loop bubble-mode uses, which is what stops
		// fresh injections from refilling the ring between steps. When
		// the check_probe dies, the enable tears down and detection
		// resumes.
		if !c.spinCycle(f) {
			return // chain moved on; the S_DISABLE timeout cleans up
		}
		s.Stats.DeadlockRecoveries++
		r.Fence = network.Fence{Active: true, In: f.probeIn, Out: f.probeOut, SrcID: f.node}
		f.recoveryStart = s.Now
		c.send(f.node, MsgCheckProbe, f.vnet, f.probeOut, f.turnBuf, f.seq)
		s.Stats.CheckProbesSent++
		c.setState(f, StateCheckProbe)
		f.deadline = s.Now + f.tDR
		return
	}
	r.Fence = network.Fence{Active: true, In: f.probeIn, Out: f.probeOut, SrcID: f.node}
	r.Bubble.Active = true
	r.Bubble.InPort = f.probeIn
	c.setState(f, StateSBActive)
	f.bubbleWasOccupied = false
	f.recoveryStart = s.Now
	f.lastGrants = r.Grants()
	f.deadline = s.Now + c.sbActiveGuard(f)
	s.Stats.DeadlockRecoveries++
}

// sbActiveGuard is the liveness bound on S_SB_ACTIVE: the paper's FSM
// keeps the counter off in this state, relying on the fenced chain to
// occupy and vacate the bubble. When chains cross, another chain's fence
// can stall this one indefinitely; after the guard expires with an empty
// bubble we tear down and retry detection from scratch.
func (c *Controller) sbActiveGuard(f *fsm) int64 {
	g := 8 * f.tDR
	if g < 4*c.opt.TDD {
		g = 4 * c.opt.TDD
	}
	return g
}

func (c *Controller) checkProbeReturned(f *fsm) {
	s := c.sim
	r := &s.Routers[f.node]
	if c.opt.Spin {
		// The chain persists: rotate it again and keep checking.
		if c.spinCycle(f) {
			c.send(f.node, MsgCheckProbe, f.vnet, f.probeOut, f.turnBuf, f.seq)
			s.Stats.CheckProbesSent++
			f.deadline = s.Now + f.tDR
			return
		}
		c.sendEnable(f)
		return
	}
	r.Bubble.Active = true
	c.setState(f, StateSBActive)
	f.bubbleWasOccupied = false
	f.deadline = s.Now + c.sbActiveGuard(f)
}

func (c *Controller) enableReturned(f *fsm) {
	s := c.sim
	if f.recoveryStart > 0 {
		c.recoveryDurations = append(c.recoveryDurations, RecoveryRecord{
			Node: f.node, PathLen: f.pathLen(), Duration: s.Now - f.recoveryStart,
		})
		f.recoveryStart = 0
	}
	r := &s.Routers[f.node]
	if r.Fence.Active && r.Fence.SrcID == f.node {
		r.Fence = network.Fence{}
	}
	f.turnBuf = Path{}
	if ptr, pid, ok := nextOccupiedVC(s, r, f.ptr); ok {
		c.setState(f, StateDD)
		f.ptr, f.ptrPkt = ptr, pid
		f.deadline = s.Now + c.opt.TDD
	} else {
		c.setState(f, StateOff)
	}
}

// spinLink is one router's buffer on a latched dependency cycle, as
// reconstructed by buildSpinChain. Hoisted to package scope so the chain
// can live in the Controller's reusable scratch slice.
type spinLink struct {
	node geom.NodeID
	ci   int
}

// buildSpinChain reconstructs the latched cycle's walk into c.spinChain's
// backing: it starts at the originator going out f.probeOut and enters
// each subsequent router per the turn buffer, closing back at the
// originator via f.probeIn. At every router it selects one packet on the
// chain (at the path's input port, wanting the path's output). ok=false
// means the chain dissolved since the disable validated it.
func (c *Controller) buildSpinChain(f *fsm) (chain []spinLink, ok bool) {
	s := c.sim
	chain = c.spinChain[:0]
	node := f.node
	heading := f.probeOut
	pick := func(n geom.NodeID, in, out geom.Direction) (spinLink, bool) {
		r := &s.Routers[n]
		for w := s.OccupancyMirror(n) & network.VnetSlots(in, f.vnet); w != 0; w &= w - 1 {
			ci := bits.TrailingZeros64(w)
			if vc := r.Buf(ci); vc.HeadReady(s.Now) && s.OutputOf(vc.Pkt, n) == out {
				return spinLink{n, ci}, true
			}
		}
		return spinLink{}, false
	}
	// The originator's chain packet sits at f.probeIn wanting f.probeOut.
	l, ok := pick(f.node, f.probeIn, f.probeOut)
	if !ok {
		return chain, false
	}
	chain = append(chain, l)
	for i := 0; i < f.turnBuf.Len(); i++ {
		turn := f.turnBuf.At(i)
		next := s.Topo.Neighbor(node, heading)
		if next == geom.InvalidNode {
			return chain, false
		}
		out := turn.Apply(heading)
		l, ok := pick(next, heading.Opposite(), out)
		if !ok {
			return chain, false
		}
		chain = append(chain, l)
		node, heading = next, out
	}
	// The walk must close: the final hop re-enters the originator.
	if s.Topo.Neighbor(node, heading) != f.node || heading.Opposite() != f.probeIn {
		return chain, false
	}
	return chain, true
}

// spinCycle performs one synchronized rotation of the latched dependency
// cycle: each selected packet moves into the buffer its successor
// vacates. All packets advance one hop in one step; the cycle provides
// its own buffering. Returns false (no movement) if the chain dissolved
// since the disable validated it.
func (c *Controller) spinCycle(f *fsm) bool {
	s := c.sim
	chain, ok := c.buildSpinChain(f)
	c.spinChain = chain[:0] // keep the (possibly grown) backing
	if !ok {
		return false
	}
	// Rotate: packet i moves into the buffer packet i+1 vacates (its next
	// hop on its own route). All moves are simultaneous, so snapshot the
	// occupants first.
	n := len(chain)
	pkts := c.spinPkts[:0]
	for _, l := range chain {
		pkts = append(pkts, s.Routers[l.node].Buf(l.ci).Pkt)
	}
	c.spinPkts = pkts[:0]
	for i, p := range pkts {
		dst := chain[(i+1)%n]
		s.ReplacePacket(dst.node, dst.ci, p)
		s.Stats.HopMoves++
		s.Stats.LinkCycles[network.ClassFlit] += int64(p.Len)
	}
	s.LastProgress = s.Now
	s.Stats.SpinRotations++
	return true
}

// sendEnable transitions f into S_ENABLE and emits the enable along the
// latched path.
func (c *Controller) sendEnable(f *fsm) {
	s := c.sim
	c.send(f.node, MsgEnable, f.vnet, f.probeOut, f.turnBuf, f.seq)
	s.Stats.EnablesSent++
	c.setState(f, StateEnable)
	f.enableRetries = 0
	f.deadline = s.Now + f.tDR
}

// --- FSM counter ticks ------------------------------------------------------

// tickAll ticks the FSMs of the tick set in ascending router id, reading
// each word of the set once. That equals a scan over every FSM only
// while no tick can bring another FSM into the set: a tick sets the
// state of its own FSM alone and moves no packet, and the messages it
// sends reach nothing but Perturber.PerturbMsg, which is not given the
// simulator, so no tick raises another router's busy or active bit.
func (c *Controller) tickAll() {
	for w := range c.busy {
		for m := c.tickSet(w); m != 0; m &= m - 1 {
			c.tickFSM(c.fsms[w<<6+bits.TrailingZeros64(m)])
		}
	}
}

func (c *Controller) tickFSM(f *fsm) {
	s := c.sim
	r := &s.Routers[f.node]
	now := s.Now
	switch f.state {
	case StateOff:
		if r.Fence.Active && r.Fence.SrcID != f.node {
			// Parked by a foreign disable; the matching enable re-arms us.
			return
		}
		if r.OccupiedNonLocal() == 0 {
			return // nothing to watch; skip the VC scan (hot path)
		}
		if ptr, pid, ok := nextOccupiedVC(s, r, -1); ok {
			c.setState(f, StateDD)
			f.ptr, f.ptrPkt = ptr, pid
			f.deadline = now + c.opt.TDD
		}

	case StateDD:
		vc := r.Buf(f.ptr)
		if vc.Pkt == nil || vc.Pkt.ID != f.ptrPkt {
			// The watched flit left: advance round-robin, restart counter;
			// S_OFF if the router drained.
			if ptr, pid, ok := nextOccupiedVC(s, r, f.ptr); ok {
				f.ptr, f.ptrPkt = ptr, pid
				f.deadline = now + c.opt.TDD
			} else {
				c.setState(f, StateOff)
			}
			return
		}
		if now < f.deadline {
			return
		}
		out := s.OutputOf(vc.Pkt, f.node)
		if !out.IsLink() {
			// Waiting on ejection: never part of a dependence cycle. Move
			// the pointer along.
			if ptr, pid, ok := nextOccupiedVC(s, r, f.ptr); ok {
				f.ptr, f.ptrPkt = ptr, pid
			}
			f.deadline = now + c.opt.TDD
			return
		}
		c.send(f.node, MsgProbe, vc.Pkt.Vnet, out, Path{}, f.seq)
		s.Stats.ProbesSent++
		f.probeOut = out
		f.vnet = vc.Pkt.Vnet
		f.deadline = now + c.opt.TDD + f.jitter()
		// Rotate the watch pointer so a router wedged in several
		// directions probes each of them across successive rounds (the
		// paper's FSM keeps watching the same VC, which starves cycles
		// exiting other ports when the watched chain is a dead end).
		if ptr, pid, ok := nextOccupiedVC(s, r, f.ptr); ok {
			f.ptr, f.ptrPkt = ptr, pid
		}

	case StateDisable:
		if now >= f.deadline {
			// The disable was dropped somewhere; clear the partial fences.
			c.sendEnable(f)
		}

	case StateSBActive:
		b := &r.Bubble
		if g := r.Grants(); g != f.lastGrants {
			// Local progress: the fenced chain is rotating (possibly
			// slowly — a long ring of 5-flit packets advances one step per
			// ~path×len cycles). Renew the no-progress guard.
			f.lastGrants = g
			f.deadline = now + c.sbActiveGuard(f)
		}
		if p := r.Buf(network.BubbleIndex).Pkt; p != nil {
			if !f.bubbleWasOccupied || p.ID != f.bubblePktID {
				// A fresh occupant means the chain advanced: renew the
				// guard.
				f.bubbleWasOccupied = true
				f.bubblePktID = p.ID
				f.deadline = now + c.sbActiveGuard(f)
			}
			if now >= f.deadline {
				// The occupant is itself wedged on a different dependency
				// chain; holding our fences any longer starves the rest of
				// the network. Release them and resume detection — the
				// resident packet drains whenever its own chain resolves.
				b.Active = false
				c.sendEnable(f)
			}
			return
		}
		reclaimed := f.bubbleWasOccupied
		if !reclaimed && !c.dependenceExists(f.node, f.probeIn, f.vnet, f.probeOut) {
			// Liveness guard beyond the paper's FSM: the disable's
			// validation round can pass on a congested (not deadlocked)
			// chain that then drains into regular VCs without ever using
			// the bubble. Treat the vanished dependence as a reclaim so
			// the fences are torn down.
			reclaimed = true
		}
		if !reclaimed && now >= f.deadline {
			// Guard expiry: a crossing chain's fence is starving this one.
			// Tear down and retry detection later.
			reclaimed = true
		}
		if !reclaimed {
			return
		}
		b.Active = false
		f.bubbleWasOccupied = false
		if c.opt.DisableCheckProbe {
			c.sendEnable(f)
			return
		}
		c.send(f.node, MsgCheckProbe, f.vnet, f.probeOut, f.turnBuf, f.seq)
		s.Stats.CheckProbesSent++
		c.setState(f, StateCheckProbe)
		f.deadline = now + f.tDR

	case StateCheckProbe:
		if now >= f.deadline {
			// No return: the chain is gone; clean up.
			c.sendEnable(f)
		}

	case StateEnable:
		if now >= f.deadline {
			f.enableRetries++
			if f.enableRetries > 32 {
				// The latched path itself died (runtime link/router
				// failure mid-recovery): the enable can never complete
				// its loop. Fences up to the break were cleared by
				// earlier transmissions; sweep the ones beyond it (no
				// enable will ever reach them), then release our own
				// state and resume detection.
				// No enable returned, so this is no completed recovery:
				// clear the start so enableReturned records nothing.
				c.sweepFences(f.node)
				f.recoveryStart = 0
				c.enableReturned(f)
				return
			}
			// The enable was dropped or lost arbitration: retransmit.
			c.send(f.node, MsgEnable, f.vnet, f.probeOut, f.turnBuf, f.seq)
			s.Stats.EnablesSent++
			f.deadline = now + f.tDR + f.jitter()
		}
	}
}

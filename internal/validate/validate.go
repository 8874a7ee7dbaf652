// Package validate provides runtime invariant checking for simulations:
// conservation of packets, occupancy-counter consistency, the escape
// class's reservation, the hop class's registrations, fence ownership,
// bubble-state sanity, and the recovery controller's tick-set masks.
// Tests use it as a one-call oracle; cmd/sbsim exposes it with -check to
// validate long runs.
package validate

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
)

// Violation describes one failed invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) Error() string { return v.Invariant + ": " + v.Detail }

// Check runs every invariant over the simulator (and controller, when
// non-nil) and returns all violations found.
func Check(s *network.Sim, ctrl *core.Controller) []Violation {
	var out []Violation
	report := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// Conservation: offered = delivered + in-flight + queued + lost.
	total := s.Stats.Delivered + s.InFlight() + s.QueuedPackets() + s.Stats.Lost
	if total != s.Stats.Offered {
		report("conservation", "accounted %d != offered %d (delivered %d, inflight %d, queued %d, lost %d)",
			total, s.Stats.Offered, s.Stats.Delivered, s.InFlight(), s.QueuedPackets(), s.Stats.Lost)
	}

	// The occupancy word matches buffer contents; in-flight matches the sum.
	escVC, hasClass := s.EscapeClass()
	masker, hasHops := s.HopClass()
	choose, hopMasks, _ := s.HopVectors()
	var globalOcc, globalQueued int64
	for id := range s.Routers {
		r := &s.Routers[id]
		occ := 0
		var occWord uint64 // what the occupancy word must hold
		for ci := 0; ci <= network.BubbleIndex; ci++ {
			if r.Buf(ci).Pkt != nil {
				occ++
				occWord |= 1 << uint(ci)
			}
		}
		if r.Bubble.VC.Pkt != nil && !r.Bubble.Present {
			report("bubble", "router %d holds a packet in a non-present bubble", id)
		}
		// The NI-pending aggregate must equal the sum of ring lengths
		// (the stepper's activity predicate trusts it).
		queued := 0
		for vnet := range s.NIQueue[id] {
			queued += s.NIQueue[id][vnet].Len()
		}
		if s.NIPending(geom.NodeID(id)) != queued {
			report("occupancy", "router %d: NI-pending counter %d != actual %d",
				id, s.NIPending(geom.NodeID(id)), queued)
		}
		globalQueued += int64(queued)
		// The active summary must cover every router holding or queueing
		// a packet: a missed bit is a packet Step never visits again.
		if (occ != 0 || queued != 0) && !s.ActiveMarked(geom.NodeID(id)) {
			report("active-set", "router %d holds %d and queues %d packets but is not in the active summary",
				id, occ, queued)
		}
		// The occupancy word must match buffer contents bit for bit: it is
		// the router's only occupancy record (Occupied and
		// OccupiedNonLocal are its popcounts), and it drives the fused
		// allocator's classification and the recovery FSM's round-robin
		// scan under every stepper, so drift would alter results without
		// tripping the differential harness.
		if mirror := s.OccupancyMirror(geom.NodeID(id)); mirror != occWord {
			report("occupancy", "router %d: mirror %#x != actual %#x", id, mirror, occWord)
		}
		// The registered request vectors and timer words, while live, must
		// equal what the buffers say: the fused allocator reads them in
		// place of the packets and the downstream buffers, so a drifted bit
		// misroutes, strands or overwrites a packet under Step and nowhere
		// else. pend is exactly the heads still in flight, drain exactly
		// the empty buffers whose tail is still streaming out.
		if want, pend, live := s.RequestVectors(geom.NodeID(id)); live {
			var expWant [geom.NumPorts]uint64
			var inFlight, draining, expEsc, expChoose uint64
			const stride = network.BubbleIndex + 1
			for bit := 0; bit < stride; bit++ {
				vc := r.Buf(bit)
				if vc.Pkt == nil {
					if vc.FreeAt > s.Now {
						draining |= 1 << uint(bit)
					}
					continue
				}
				// Under a hop class only the fixed hops are want bits: a
				// packet with several minimal directions is registered in
				// the class's word, its mask byte beside it.
				var mask uint8
				if hasHops && vc.Pkt.Dst != geom.NodeID(id) {
					mask = masker.NextHopMask(geom.NodeID(id), vc.Pkt.Dst)
				}
				if mask&(mask-1) != 0 {
					expChoose |= 1 << uint(bit)
					if got := hopMasks[id*stride+bit]; got != mask {
						report("hop-class", "router %d buffer %d: mask byte %#x != table %#x", id, bit, got, mask)
					}
				} else if out := s.OutputOf(vc.Pkt, geom.NodeID(id)); out != geom.Invalid {
					expWant[out] |= 1 << uint(bit)
				}
				if vc.ReadyAt > s.Now {
					inFlight |= 1 << uint(bit)
				}
				if vc.Pkt.Escaped {
					expEsc |= 1 << uint(bit)
				}
			}
			if want != expWant {
				report("request-vectors", "router %d: want %#x != actual %#x", id, want, expWant)
			}
			if pend != inFlight {
				report("request-vectors", "router %d: pend %#x != heads in flight %#x", id, pend, inFlight)
			}
			if drain, _ := s.DrainVector(geom.NodeID(id)); drain != draining {
				report("request-vectors", "router %d: drain %#x != draining buffers %#x", id, drain, draining)
			}
			if esc, _ := s.EscapedVector(geom.NodeID(id)); hasClass && esc != expEsc {
				report("escape-class", "router %d: class word %#x != actual %#x", id, esc, expEsc)
			}
			if hasHops && choose[id] != expChoose {
				report("hop-class", "router %d: choose-per-visit word %#x != actual %#x", id, choose[id], expChoose)
			}
		}
		// The escape class's reservation: whatever sits in the reserved VC
		// index has been promoted, and injection (regular packets only)
		// never fills it.
		if hasClass {
			for _, port := range geom.AllPorts {
				for vnet := 0; vnet < network.NumVnets; vnet++ {
					p := r.VCAt(port, vnet, escVC).Pkt
					if p == nil {
						continue
					}
					if port == geom.Local {
						report("escape-class", "router %d: packet %d in the reserved VC of the local port (vnet %d)", id, p.ID, vnet)
					} else if !p.Escaped {
						report("escape-class", "router %d: regular packet %d in the reserved VC of port %v (vnet %d)", id, p.ID, port, vnet)
					}
				}
			}
		}
		globalOcc += int64(occ)

		// Dead routers must be empty and unfenced.
		if !s.Topo.RouterAlive(geom.NodeID(id)) {
			if occ != 0 {
				report("dead-router", "router %d is dead but holds %d packets", id, occ)
			}
			if r.Fence.Active {
				report("dead-router", "router %d is dead but fenced", id)
			}
		}

		// Buffered packets must be at a position consistent with their
		// route (the remaining route starts here and is walkable) — except
		// those that no longer follow it: an escaped packet is on the tree,
		// and under a hop class the route may be unused altogether.
		if !hasHops {
			for _, port := range geom.AllPorts {
				for slot := range r.In[port] {
					p := r.In[port][slot].Pkt
					if p == nil || p.Escaped {
						continue
					}
					if p.Hop > len(p.Route) {
						report("route", "packet %d hop %d beyond route length %d", p.ID, p.Hop, len(p.Route))
					}
				}
			}
		}
	}
	if globalOcc != s.InFlight() {
		report("occupancy", "global buffered %d != in-flight counter %d", globalOcc, s.InFlight())
	}
	if globalQueued != s.QueuedPackets() {
		report("occupancy", "global queued %d != queued counter %d", globalQueued, s.QueuedPackets())
	}

	// Fence ownership: every active fence's source must be an SB router
	// whose FSM is mid-recovery (with a controller attached, a stale
	// fence means a teardown guard failed).
	if ctrl != nil {
		inRecovery, hasFSM := map[geom.NodeID]bool{}, map[geom.NodeID]bool{}
		for _, n := range ctrl.BubbleRouters() {
			hasFSM[n] = true
			switch ctrl.FSMState(n) {
			case core.StateDisable, core.StateSBActive, core.StateCheckProbe, core.StateEnable:
				inRecovery[n] = true
			}
		}
		for id := range s.Routers {
			fe := s.Routers[id].Fence
			if fe.Active && !inRecovery[fe.SrcID] {
				report("fence", "router %d fenced by %v whose FSM is %v",
					id, fe.SrcID, ctrl.FSMState(fe.SrcID))
			}
		}
		// The controller ticks only the FSMs of act&sb | busy, so its two
		// masks must say what the FSMs say: an sb bit exactly where an FSM
		// exists (a stray one is a nil FSM ticked, a missing one an FSM
		// never armed), a busy bit exactly where the FSM is not in S_OFF
		// (a missing one freezes a recovery mid-round).
		sb, busy := ctrl.TickMasks()
		stray := 0 // mask bits at positions no router occupies
		for w := range sb {
			stray += bits.OnesCount64(sb[w]) + bits.OnesCount64(busy[w])
		}
		for id := range s.Routers {
			n, b := geom.NodeID(id), uint(id)
			inSB, inBusy := sb[b>>6]>>(b&63)&1 != 0, busy[b>>6]>>(b&63)&1 != 0
			if inSB != hasFSM[n] {
				report("fsm-busy-set", "router %d: sb bit %v but FSM present %v", id, inSB, hasFSM[n])
			}
			if st := ctrl.FSMState(n); inBusy != (st != core.StateOff) {
				report("fsm-busy-set", "router %d: busy bit %v but FSM is %v", id, inBusy, st)
			}
			if inSB {
				stray--
			}
			if inBusy {
				stray--
			}
		}
		if stray != 0 {
			report("fsm-busy-set", "%d mask bits at positions no router occupies", stray)
		}
		// Active bubbles belong to recovering FSMs.
		for id := range s.Routers {
			b := &s.Routers[id].Bubble
			if b.Active && !inRecovery[geom.NodeID(id)] {
				report("bubble", "router %d bubble active but FSM is %v",
					id, ctrl.FSMState(geom.NodeID(id)))
			}
		}
	}
	return out
}

// Must panics on the first violation; handy in examples and debugging
// sessions.
func Must(s *network.Sim, ctrl *core.Controller) {
	if vs := Check(s, ctrl); len(vs) > 0 {
		panic(fmt.Sprintf("validate: %d violations, first: %v", len(vs), vs[0]))
	}
}

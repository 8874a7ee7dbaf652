// Package deadlock provides ground-truth deadlock analysis over a running
// network simulation: an exact drainability fixpoint over the buffer
// wait-for structure, and an operational detector based on global
// progress. The experiments use these as oracles (paper Figs. 2 and 3);
// the recovery tests use them to cross-check the protocol.
package deadlock

import (
	"repro/internal/geom"
	"repro/internal/network"
)

// BlockedPacket describes one packet that can never move again under the
// current buffer state.
type BlockedPacket struct {
	Pkt    *network.Packet
	Router geom.NodeID
	In     geom.Direction
	// Slot is the VC index within the input port (-1 for a static
	// bubble).
	Slot int
	// Wants is the output port the packet is blocked on.
	Wants geom.Direction
}

// Analyze runs an exact drainability fixpoint over the simulator state: a
// buffered packet is drainable if it wants ejection, or if some VC it
// could move into is free or drainable-and-will-free. Packets outside the
// fixpoint are deadlocked (they can never move regardless of future
// scheduling). Fences are ignored: this reports true buffer deadlocks,
// not protocol-induced stalls.
//
// The analysis is exact for this simulator because routes are fixed at
// the source (each packet has one desired output per router).
func Analyze(s *network.Sim) []BlockedPacket {
	type ref struct {
		router geom.NodeID
		in     geom.Direction
		slot   int // -1 = bubble
	}
	occupied := map[ref]*network.Packet{}
	for id := range s.Routers {
		r := &s.Routers[id]
		if r.Occupied() == 0 {
			continue
		}
		for _, port := range geom.AllPorts {
			for slot := range r.In[port] {
				if p := r.In[port][slot].Pkt; p != nil {
					occupied[ref{geom.NodeID(id), port, slot}] = p
				}
			}
		}
		if p := r.Bubble.VC.Pkt; p != nil {
			occupied[ref{geom.NodeID(id), r.Bubble.InPort, -1}] = p
		}
	}

	drainable := map[ref]bool{}
	// Iterate to fixpoint: O(V·E) worst case, fine at mesh scale.
	for changed := true; changed; {
		changed = false
		for rf, p := range occupied {
			if drainable[rf] {
				continue
			}
			out := s.OutputOf(p, rf.router)
			if out == geom.Local {
				drainable[rf] = true
				changed = true
				continue
			}
			if !out.IsLink() || !s.Topo.HasLink(rf.router, out) {
				continue // wedged on a dead link: never drainable
			}
			nb := s.Topo.Neighbor(rf.router, out)
			in := out.Opposite()
			nbr := &s.Routers[nb]
			base := p.Vnet * s.Cfg.VCsPerVnet
			ok := false
			for i := 0; i < s.Cfg.VCsPerVnet; i++ {
				slot := base + i
				target := ref{nb, in, slot}
				if nbr.In[in][slot].Pkt == nil || drainable[target] {
					ok = true
					break
				}
			}
			if !ok && nbr.Bubble.Present {
				// A present bubble may be activated by recovery, so for
				// ground-truth purposes an empty or drainable bubble on
				// the right port counts as an escape route only when
				// active now.
				if nbr.Bubble.Active && nbr.Bubble.InPort == in {
					target := ref{nb, in, -1}
					if nbr.Bubble.VC.Pkt == nil || drainable[target] {
						ok = true
					}
				}
			}
			if ok {
				drainable[rf] = true
				changed = true
			}
		}
	}

	var blocked []BlockedPacket
	for id := range s.Routers {
		r := &s.Routers[id]
		for _, port := range geom.AllPorts {
			for slot := range r.In[port] {
				p := r.In[port][slot].Pkt
				if p == nil {
					continue
				}
				rf := ref{geom.NodeID(id), port, slot}
				if !drainable[rf] {
					blocked = append(blocked, BlockedPacket{
						Pkt: p, Router: geom.NodeID(id), In: port, Slot: slot,
						Wants: s.OutputOf(p, geom.NodeID(id)),
					})
				}
			}
		}
		if p := r.Bubble.VC.Pkt; p != nil {
			rf := ref{geom.NodeID(id), r.Bubble.InPort, -1}
			if !drainable[rf] {
				blocked = append(blocked, BlockedPacket{
					Pkt: p, Router: geom.NodeID(id), In: r.Bubble.InPort, Slot: -1,
					Wants: s.OutputOf(p, geom.NodeID(id)),
				})
			}
		}
	}
	return blocked
}

// IsDeadlocked reports whether any buffered packet can never drain.
func IsDeadlocked(s *network.Sim) bool { return len(Analyze(s)) > 0 }

// Watcher is the operational deadlock detector used by the topology-space
// sweeps: the network is declared deadlocked when no packet has moved for
// Horizon cycles while packets remain in flight. This matches the paper's
// Fig. 2/3 methodology (observe whether the network deadlocks).
type Watcher struct {
	// Horizon is the no-progress window in cycles; the default used by
	// the experiments is 1000.
	Horizon int64
}

// Deadlocked reports the operational verdict for the current state of s.
func (w Watcher) Deadlocked(s *network.Sim) bool {
	h := w.Horizon
	if h == 0 {
		h = 1000
	}
	return s.InFlight() > 0 && s.Now-s.LastProgress >= h
}

// DrainWedged stops injection and gives the network a bounded chance to
// make progress. Wedged means a full progress window elapsed with
// packets in the network, not a single delivery, and not a single
// completed recovery — the protocol has failed to restore liveness.
// Saturated-but-live configurations keep delivering and pass; a deadlock
// mid-recovery completes a round and passes. The adversarial search
// rewards this outcome maximally (it is the SLO-breaking one): per-hop
// probe loss makes a full cycle traversal exponentially unlikely in the
// cycle length, so sufficiently hostile control planes can pin a
// deadlock in place indefinitely while probes retransmit forever.
func DrainWedged(s *network.Sim) bool {
	const window = 2000
	const windows = 5
	for w := 0; w < windows; w++ {
		if s.InFlight() == 0 && s.QueuedPackets() == 0 {
			return false
		}
		delivered, recovered := s.Stats.Delivered, s.Stats.DeadlockRecoveries
		s.Run(window)
		if s.Stats.Delivered == delivered && s.Stats.DeadlockRecoveries == recovered {
			return true
		}
	}
	// Still draining but making progress every window: live.
	return false
}

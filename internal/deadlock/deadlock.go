// Package deadlock provides ground-truth deadlock analysis over a running
// network simulation: an exact drainability fixpoint over the buffer
// wait-for structure, and an operational detector based on global
// progress. The experiments use these as oracles (paper Figs. 2 and 3);
// the recovery tests use them to cross-check the protocol.
package deadlock

import (
	"math/bits"

	"repro/internal/geom"
	"repro/internal/network"
)

// BlockedPacket describes one packet that can never move again under the
// current buffer state.
type BlockedPacket struct {
	Pkt    *network.Packet
	Router geom.NodeID
	// CI is the candidate index of the packet's buffer at Router
	// (network.Router.Buf).
	CI int
	// Wants is the output port the packet is blocked on.
	Wants geom.Direction
}

// Analyze runs an exact drainability fixpoint over the simulator state: a
// buffered packet is drainable if it wants ejection, or if some VC it
// could move into is free or drainable-and-will-free. Packets outside the
// fixpoint are deadlocked (they can never move regardless of future
// scheduling). Fences are ignored: this reports true buffer deadlocks,
// not protocol-induced stalls. Blocked packets are listed by router, then
// by candidate index.
//
// The analysis is exact for this simulator because routes are fixed at
// the source (each packet has one desired output per router). It keeps
// one drainable word per router in the occupancy word's layout, so
// whether a packet's next lane has room or drains is two mask tests.
func Analyze(s *network.Sim) []BlockedPacket {
	drainable := make([]uint64, len(s.Routers))
	// Iterate to fixpoint: O(V·E) worst case, fine at mesh scale.
	for changed := true; changed; {
		changed = false
		for id := range s.Routers {
			for w := s.OccupancyMirror(geom.NodeID(id)) &^ drainable[id]; w != 0; w &= w - 1 {
				ci := bits.TrailingZeros64(w)
				if drains(s, drainable, geom.NodeID(id), ci) {
					drainable[id] |= 1 << uint(ci)
					changed = true
				}
			}
		}
	}

	var blocked []BlockedPacket
	for id := range s.Routers {
		node := geom.NodeID(id)
		for w := s.OccupancyMirror(node) &^ drainable[id]; w != 0; w &= w - 1 {
			ci := bits.TrailingZeros64(w)
			p := s.Routers[id].Buf(ci).Pkt
			blocked = append(blocked, BlockedPacket{Pkt: p, Router: node, CI: ci, Wants: s.OutputOf(p, node)})
		}
	}
	return blocked
}

// drains reports whether the packet in buffer ci of router id can move
// on, given the buffers already known drainable: it ejects, or the VCs of
// its vnet at the next router's input port are not all occupied or hold a
// drainable packet. A present bubble may be activated by recovery, so
// for ground-truth purposes an empty or drainable bubble on that port
// counts as an escape route only when active now.
func drains(s *network.Sim, drainable []uint64, id geom.NodeID, ci int) bool {
	p := s.Routers[id].Buf(ci).Pkt
	out := s.OutputOf(p, id)
	if out == geom.Local {
		return true
	}
	if !out.IsLink() || !s.Topo.HasLink(id, out) {
		return false // wedged on a dead link: never drainable
	}
	nb, in := s.Topo.Neighbor(id, out), out.Opposite()
	occ, done := s.OccupancyMirror(nb), drainable[nb]
	if lane := network.VnetSlots(in, p.Vnet); occ&lane != lane || done&lane != 0 {
		return true
	}
	const bubble = uint64(1) << network.BubbleIndex
	b := &s.Routers[nb].Bubble
	return b.Present && b.Active && b.InPort == in && (occ&bubble == 0 || done&bubble != 0)
}

// IsDeadlocked reports whether any buffered packet can never drain.
func IsDeadlocked(s *network.Sim) bool { return len(Analyze(s)) > 0 }

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

package network

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/routing"
)

// Packet pooling: in steady state a simulator creates and destroys one
// packet per delivery, which under plain allocation costs two heap
// objects per packet (the Packet and its Route slice) and makes GC — not
// compute — the bound on long saturation sweeps. Each Sim therefore owns
// a packet free list: delivered and lost packets are recycled, and each
// packet keeps its route buffer across lives, rewriting it in place.
// PrewarmPool reserves the storage a run's peak population needs, and
// packets are carved from that reservation on first use, so after
// warm-up the cycle loop allocates nothing (verified by
// TestZeroAllocSteadyState and TestZeroAllocSaturation, which CI runs).
//
// Ownership rules:
//
//   - NewPacket serves the free list first, then the reservation's next
//     unused packet, then the heap. NewPacket COPIES the caller's route
//     into the packet's own buffer; the caller keeps ownership of (and
//     may immediately reuse) its buffer. This is what makes
//     scratch-route injection (traffic.Injector) and cross-sim route
//     sharing (the differential harness drives several Sims off one
//     route slice) safe.
//   - A *Packet obtained from NewPacket is owned by the Sim from
//     delivery/loss onward: grant's local-ejection branch,
//     DeliverOutOfBand, RemovePacket and FilterQueued all return it to
//     the pool, and NewPacket may hand the same memory out again. Holders
//     that outlive delivery keep the packet's ID, which is never reused,
//     not the pointer; a reserved packet is recycled like any other, so
//     the same rule holds.
//   - SetRoute (a packet in no buffer) and Reroute (a buffered one) are
//     the only sanctioned ways to replace a live packet's route
//     (reconfig's reroutes); both rewrite the packet's buffer in place,
//     growing that one buffer when the new route does not fit.
//
// The refmodel differential unit runs with SetPooling(false): it keeps
// plain new(Packet) allocation and never touches the reservation, so a
// pooling bug in the stepper (premature recycle, route-buffer aliasing)
// perturbs its trajectory but not the refmodel's and surfaces as a Stats
// divergence.

// PoolStats counts packet-pool traffic; exposed for the
// allocation-observability harness and asserted by lifecycle tests.
type PoolStats struct {
	// PacketAllocs counts packets constructed fresh: carved from the
	// PrewarmPool reservation, or built on the heap once it is used up.
	PacketAllocs int64
	// PacketReuses counts packets served from the free list.
	PacketReuses int64
	// PacketReleases counts delivered or lost packets returned to the
	// free list.
	PacketReleases int64
}

// poolState is the per-Sim recycling state (embedded in Sim).
type poolState struct {
	disabled bool
	free     []*Packet
	// slab holds the reserved packets not yet handed out, and spans the
	// route storage reserved for them; NewPacket carves a packet from
	// slab's front, and spanLen entries of spans, when free is empty.
	slab    []Packet
	spans   []geom.Direction
	spanLen int
	stats   PoolStats
}

// SetPooling enables or disables packet/route recycling. Pooling is on
// by default; the refmodel differential unit turns it off so that the
// two cores manage packet lifetime independently (see the package
// comment above). Must be called before any packet is created, so that
// a run is pooled throughout or not at all.
func (s *Sim) SetPooling(on bool) {
	if s.nextPktID != 0 {
		panic("network: SetPooling after packets were created")
	}
	s.pool.disabled = !on
}

// PoolStats returns a snapshot of the recycling counters.
func (s *Sim) PoolStats() PoolStats { return s.pool.stats }

// PrewarmPool reserves the storage a run's peak population needs, so a
// measurement window opened afterwards sees no heap allocation at all.
// It constructs nothing; the run carves what it uses on first use:
//
//   - one slab of `packets` packets, which NewPacket carves from once
//     the free list is empty (cover the scenario's in-flight population
//     ceiling);
//   - one route buffer of packets*routeLen hops, of which each carved
//     packet takes its own routeLen-hop span for life (cover the
//     scenario's longest minimal route), and free-list capacity for
//     `packets` recycled packets;
//   - one buffer of niDepth slots per NI injection ring, every ring
//     pointing at its window of it (first-touch and high-water ring
//     growth otherwise land in the window).
//
// The stepper's own scratch (the active set) is sized to its bounds at
// construction and needs no prewarming. A second call replaces the
// unused part of the packet reservation.
//
// The prewarm allocates deterministically, draws no randomness and moves
// no packets, so the simulated trajectory is byte-identical with or
// without it; PoolStats counts only the packets the run carves. No-op
// when pooling is disabled.
func (s *Sim) PrewarmPool(packets, routeLen, niDepth int) {
	if s.pool.disabled {
		return
	}
	s.pool.slab = make([]Packet, packets)
	s.pool.spans = make([]geom.Direction, packets*routeLen)
	s.pool.spanLen = routeLen
	s.pool.free = slices.Grow(s.pool.free, packets)
	win := make([]*Packet, len(s.NIQueue)*NumVnets*niDepth)
	for id := range s.NIQueue {
		for v := range s.NIQueue[id] {
			s.NIQueue[id][v].reserve(win[:niDepth:niDepth])
			win = win[niDepth:]
		}
	}
}

// carvePacket hands out the next reserved packet, or nil once the
// reservation is used up.
func (s *Sim) carvePacket() *Packet {
	if len(s.pool.slab) == 0 {
		return nil
	}
	p := &s.pool.slab[0]
	s.pool.slab = s.pool.slab[1:]
	// Three-index slice: the span's capacity ends at its own boundary, so
	// a route that outgrows it moves to the heap instead of scribbling on
	// the next packet's span.
	p.Route = s.pool.spans[:0:s.pool.spanLen]
	s.pool.spans = s.pool.spans[s.pool.spanLen:]
	return p
}

// releasePacket returns p to the free list. The caller must have removed
// every live reference the simulator holds (VC slots, NI queues).
func (s *Sim) releasePacket(p *Packet) {
	if p == nil || s.pool.disabled {
		return
	}
	s.pool.stats.PacketReleases++
	s.pool.free = append(s.pool.free, p)
}

// SetRoute replaces p's route with a copy of r and rewinds it to hop 0.
// p must be in no buffer (NewPacket, a queued packet); Reroute is the
// buffered packet's counterpart. r must not alias p.Route. The copy
// rewrites p's own route buffer, which grows when r does not fit.
func (s *Sim) SetRoute(p *Packet, r routing.Route) {
	p.Hop = 0
	p.Route = append(p.Route[:0], r...)
}

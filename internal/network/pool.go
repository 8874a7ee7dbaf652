package network

import (
	"slices"

	"repro/internal/routing"
)

// Packet pooling: in steady state a simulator creates and destroys one
// packet per delivery, which under plain allocation costs two heap
// objects per packet (the Packet and its Route slice) and makes GC — not
// compute — the bound on long saturation sweeps. Each Sim therefore owns
// a packet free list and a routing.Arena: delivered and lost packets are
// recycled, and every route lives in an arena span that returns to a
// size-class free list with its packet. PrewarmPool reserves the storage
// a run's peak population needs, and packets are carved from that
// reservation on first use, so after warm-up the cycle loop allocates
// nothing (verified by TestZeroAllocSteadyState and
// TestZeroAllocSaturation, which CI runs).
//
// Ownership rules:
//
//   - NewPacket serves the free list first, then the reservation's next
//     unused packet, then the heap. NewPacket COPIES the caller's route
//     into the arena; the caller keeps ownership of (and may immediately
//     reuse) its buffer. This is what makes scratch-route injection
//     (traffic.Injector) and cross-sim route sharing (the differential
//     harness drives several Sims off one route slice) safe.
//   - A *Packet obtained from NewPacket is owned by the Sim from
//     delivery/loss onward: grant's local-ejection branch,
//     DeliverOutOfBand, RemovePacket and DiscardQueued all return it to
//     the pool. Holders that outlive delivery must use Packet.Ref; a
//     reserved packet is recycled like any other, so the same rule holds.
//   - SetRoute is the only sanctioned way to replace a live packet's
//     route (reconfig's reroutes); it recycles the old span in place
//     when the new route fits.
//
// The refmodel differential unit runs with SetPooling(false): it keeps
// plain new(Packet) allocation and never touches the reservation, so a
// pooling bug in the stepper (premature recycle, route-span aliasing)
// perturbs its trajectory but not the refmodel's and surfaces as a Stats
// divergence.

// PoolStats counts packet-pool and route-arena traffic; exposed for the
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
	// RouteArena is the route-span allocator's traffic.
	RouteArena routing.ArenaStats
}

// poolState is the per-Sim recycling state (embedded in Sim).
type poolState struct {
	disabled bool
	free     []*Packet
	// slab holds the reserved packets not yet handed out; NewPacket
	// carves from its front when free is empty, giving each carved packet
	// a spanLen-class route span.
	slab    []Packet
	spanLen int
	routes  routing.Arena
	stats   PoolStats
}

// PoolingEnabled reports whether this Sim recycles packets and routes.
func (s *Sim) PoolingEnabled() bool { return !s.pool.disabled }

// SetPooling enables or disables packet/route recycling. Pooling is on
// by default; the refmodel differential unit turns it off so that the
// two cores manage packet lifetime independently (see the package
// comment above). Must be called before any packet is created: flipping
// modes mid-run would mix arena-owned and heap routes on live packets.
func (s *Sim) SetPooling(on bool) {
	if s.nextPktID != 0 {
		panic("network: SetPooling after packets were created")
	}
	s.pool.disabled = !on
}

// PoolStats returns a snapshot of the recycling counters.
func (s *Sim) PoolStats() PoolStats {
	st := s.pool.stats
	st.RouteArena = s.pool.routes.Stats()
	return st
}

// PrewarmPool reserves the storage a run's peak population needs, so a
// measurement window opened afterwards sees no heap allocation at all.
// It constructs nothing; the run carves what it uses on first use:
//
//   - one slab of `packets` packets, which NewPacket carves from once
//     the free list is empty, each carved packet taking an arena span
//     sized for routes up to routeLen hops (cover the scenario's
//     in-flight population ceiling and its longest minimal route);
//   - one arena block for those `packets` spans, and free-list capacity
//     for `packets` recycled packets;
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
	s.pool.spanLen = routeLen
	s.pool.routes.Reserve(packets, routeLen)
	s.pool.free = slices.Grow(s.pool.free, packets)
	win := make([]*Packet, len(s.NIQueue)*s.Cfg.NumVnets*niDepth)
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
	p.Route, p.routeOwned = s.pool.routes.Get(s.pool.spanLen), true
	return p
}

// releasePacket returns p to the free list. The caller must have removed
// every live reference the simulator holds (VC slots, NI queues); stale
// references elsewhere are caught by the generation check.
func (s *Sim) releasePacket(p *Packet) {
	if p == nil || s.pool.disabled {
		return
	}
	p.gen++
	s.pool.stats.PacketReleases++
	s.pool.free = append(s.pool.free, p)
}

// SetRoute replaces p's route with a copy of r and rewinds it to hop 0
// (reconfig's in-place reroute). r must not alias p.Route. Under pooling
// the copy goes to the arena, reusing p's current span when it fits;
// without pooling it is a fresh heap slice, mirroring what reroute
// callers allocated historically. p may sit in a buffer, so the request
// vectors are marked stale (dense.go).
func (s *Sim) SetRoute(p *Packet, r routing.Route) {
	s.dense.stale = true
	s.setRoute(p, r)
}

// setRoute is SetRoute for a packet known to be in no buffer (NewPacket:
// every packet passes through here, and must not cost a rebuild).
func (s *Sim) setRoute(p *Packet, r routing.Route) {
	p.Hop = 0
	if s.pool.disabled {
		p.Route = append(routing.Route(nil), r...)
		p.routeOwned = false
		return
	}
	if p.routeOwned && cap(p.Route) >= len(r) {
		p.Route = p.Route[:len(r)]
		copy(p.Route, r)
		return
	}
	if p.routeOwned {
		s.pool.routes.Put(p.Route)
	}
	p.Route = s.pool.routes.Copy(r)
	p.routeOwned = true
}

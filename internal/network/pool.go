package network

import "repro/internal/routing"

// Packet pooling: in steady state a simulator creates and destroys one
// packet per delivery, which under plain allocation costs two heap
// objects per packet (the Packet and its Route slice) and makes GC — not
// compute — the bound on long saturation sweeps. Each Sim therefore owns
// a packet free list and a routing.Arena: delivered and lost packets are
// recycled, and every route lives in an arena span that returns to a
// size-class free list with its packet. After warm-up the cycle loop
// allocates nothing (verified by TestZeroAllocSteadyState and
// TestZeroAllocSaturation, which CI runs).
//
// Ownership rules:
//
//   - NewPacket COPIES the caller's route into the arena; the caller
//     keeps ownership of (and may immediately reuse) its buffer. This is
//     what makes scratch-route injection (traffic.Injector) and
//     cross-sim route sharing (the differential harness drives several
//     Sims off one route slice) safe.
//   - A *Packet obtained from NewPacket is owned by the Sim from
//     delivery/loss onward: tryGrant's local-ejection branch,
//     DeliverOutOfBand, RemovePacket and DiscardQueued all return it to
//     the pool. Holders that outlive delivery must use Packet.Ref.
//   - SetRoute is the only sanctioned way to replace a live packet's
//     route (reconfig's reroutes); it recycles the old span in place
//     when the new route fits.
//   - The sharded stepper is safe because packets are created by
//     injection tick code and released either by commitAllocate or by
//     the commit-sink fold, all of which run on the coordinator in the
//     sequential portion of the cycle (parallel commit workers only
//     *defer* releases into their sinks).
//
// The refmodel differential unit runs with SetPooling(false): it keeps
// plain new(Packet) allocation, so a pooling bug in the event/sharded
// cores (premature recycle, route-span aliasing) perturbs their
// trajectory but not the refmodel's and surfaces as a Stats divergence.

// PoolStats counts packet-pool and route-arena traffic; exposed for the
// allocation-observability harness and asserted by lifecycle tests.
type PoolStats struct {
	// PacketAllocs counts packets built fresh on the heap (pool empty).
	PacketAllocs int64
	// PacketReuses counts packets served from the free list.
	PacketReuses int64
	// PacketReleases counts packets returned to the free list.
	PacketReleases int64
	// RouteArena is the route-span allocator's traffic.
	RouteArena routing.ArenaStats
}

// poolState is the per-Sim recycling state (embedded in Sim).
type poolState struct {
	disabled bool
	free     []*Packet
	routes   routing.Arena
	stats    PoolStats
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

// PrewarmPool pre-sizes every growable structure the steady-state cycle
// loop touches, so a measurement window opened afterwards sees no heap
// allocation at all:
//
//   - `packets` recycled packets enter the free list, each already
//     holding an arena route span sized for routes up to routeLen hops
//     (cover the scenario's in-flight population ceiling and its longest
//     minimal route);
//   - every NI injection ring is reserved to niDepth entries (first-touch
//     and high-water ring growth otherwise land in the window).
//
// The stepper's own scratch (active set, per-shard plans and sinks) is
// sized to its bounds at construction and needs no prewarming.
//
// The prewarm allocates deterministically, draws no randomness and moves
// no packets, so the simulated trajectory is byte-identical with or
// without it. It inflates PoolStats' alloc/release counters by `packets`.
// No-op when pooling is disabled.
func (s *Sim) PrewarmPool(packets, routeLen, niDepth int) {
	if s.pool.disabled {
		return
	}
	for i := 0; i < packets; i++ {
		p := &Packet{Route: s.pool.routes.Get(routeLen), routeOwned: true}
		s.pool.stats.PacketAllocs++
		s.releasePacket(p)
	}
	for id := range s.NIQueue {
		for v := range s.NIQueue[id] {
			s.NIQueue[id][v].Reserve(niDepth)
		}
	}
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
// vectors are marked stale (dense.go); call it from the stepping
// goroutine.
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

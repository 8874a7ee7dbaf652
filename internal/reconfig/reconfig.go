// Package reconfig coordinates safe runtime topology changes over a live
// simulation — the operations the paper's motivating domains perform:
// power-gating routers (NoRD, Router Parking, Panthre) and surviving
// link/router failures (Ariadne, uDIREC). Static Bubble guarantees the
// *resulting* topology is deadlock-free; this package handles the
// transition itself:
//
//   - Gating a router is graceful: new routes avoid it, traffic transiting
//     it drains, and only then does it power off.
//   - A failure is abrupt: packets whose remaining route crosses the dead
//     component are rerouted in place from their current position, or
//     dropped if their destination became unreachable (the paper's
//     methodology drops such packets).
//   - A recovery re-enables the element, refreshes routing, and wakes the
//     routers that can use it again.
//
// The manager is overlap-safe: events arrive as a stream (Submit /
// SubmitAt + Tick) and any interleaving is legal, including events that
// touch the same router. A failure overrides a gate drain in progress on
// the same router; a recovery of a draining router revokes the drain
// (the router never powered off, so nothing rebuilds); repeated fails
// and recovers are idempotent no-ops. Every applied mutation advances
// the reconfiguration epoch (Epoch), the validity domain for compiled
// tables and one-shot detour routes.
//
// After every change the manager repairs its one minimal-routing table in
// place, so newly injected packets always use the current topology.
package reconfig

import (
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Manager wraps a simulator and its topology with safe mutation
// operations. Create with New; use Route for route computation so that
// pending gates are respected.
type Manager struct {
	sim  *network.Sim
	topo *topology.Topology
	// minimal is the manager's own table, recompiled in place whenever
	// the topology changes.
	minimal *routing.Minimal
	// tabStats counts the table repairs; see TableStats.
	tabStats TableStats
	// pendingGate marks routers that must not receive new routes but are
	// still draining.
	pendingGate map[geom.NodeID]bool
	// scheme, when set, is notified after each applied router event so
	// recovery protocol state (FSMs, fences) tracks the topology. See
	// SetScheme.
	scheme SchemeHandler
	// epoch counts applied topology mutations. See Epoch.
	epoch int64
	// queue holds scheduled events (SubmitAt) ordered by (at, seq).
	queue []scheduledEvent
	seq   int64
	// OnRepair, when non-nil, observes every packet the manager touches
	// while repairing traffic after a failure: rerouted packets
	// (dropped=false) and discarded ones (dropped=true, fired before the
	// packet is released — read fields only during the callback, as with
	// Sim.OnDeliver). Churn harnesses use it to attribute in-flight
	// damage to the event that caused it.
	OnRepair func(p *network.Packet, dropped bool)
	// Dropped counts packets discarded because a failure disconnected
	// their destination.
	Dropped int64
	// Rerouted counts packets whose route was recomputed in place.
	Rerouted int64
	// routeBuf is the route scratch: repairTraffic builds replacement
	// routes here and Sim.SetRoute copies them into the packet's arena
	// span, so repairs don't allocate per packet; Route builds here and
	// returns a copy.
	routeBuf routing.Route
}

// New builds a manager over a live simulation.
func New(s *network.Sim) *Manager {
	m := &Manager{
		sim:         s,
		topo:        s.Topo,
		pendingGate: make(map[geom.NodeID]bool),
	}
	m.rebuild()
	return m
}

// rebuild brings m.minimal to the topology's current state in place:
// the incremental recompiler repairs exactly the columns the epoch's
// delta perturbed (the first build and oversized deltas compile cold),
// and the epoch is charged the entries the repair rewrote.
func (m *Manager) rebuild() {
	t0 := time.Now()
	var st routing.RecompileStats
	if m.minimal != nil {
		st = m.minimal.Recompile(m.topo)
	} else {
		m.minimal = routing.NewMinimal(m.topo)
		st = routing.RecompileStats{Full: true, EntriesRewritten: m.minimal.TableEntries()}
	}
	m.tabStats.CompileNs += time.Since(t0).Nanoseconds()
	if st.EntriesRewritten == 0 {
		m.tabStats.Hits++
	} else {
		m.tabStats.Misses++
	}
	if st.Full {
		m.tabStats.Full++
	} else {
		m.tabStats.Incremental++
	}
	m.tabStats.ColsShared += int64(st.ColsShared)
	m.tabStats.ColsRepaired += int64(st.ColsRepaired)
	m.tabStats.ColsRebuilt += int64(st.ColsRebuilt)
	m.tabStats.EntriesRewritten += st.EntriesRewritten
}

// Route returns a minimal route from src to dst that avoids routers
// pending gating, or ok=false if none exists. Use this instead of a raw
// routing.Minimal while gating operations are in progress.
// The route is built in the manager's scratch and returned as one
// exact-size copy: the table is walked once.
func (m *Manager) Route(src, dst geom.NodeID) (routing.Route, bool) {
	r, ok := m.appendRoute(m.routeBuf[:0], src, dst)
	if !ok {
		return nil, false
	}
	m.routeBuf = r[:0]
	out := make(routing.Route, len(r))
	copy(out, r)
	return out, true
}

// appendRoute is Route with the hops appended onto buf; on ok=false buf
// is returned unchanged.
func (m *Manager) appendRoute(buf routing.Route, src, dst geom.NodeID) (routing.Route, bool) {
	r, ok := m.minimal.AppendRoute(buf, src, dst, m.sim.Rng)
	if !ok {
		return buf, false
	}
	if len(m.pendingGate) == 0 || !m.routeTouches(r[len(buf):], src, m.pendingGate) {
		return r, true
	}
	// Recompute on a view that excludes pending-gate routers. One-shot:
	// a single reverse BFS for this dst instead of compiling all-pairs
	// tables for a throwaway view (identical rng draws and route).
	view := m.topo.Clone()
	for n := range m.pendingGate {
		view.DisableRouter(n)
	}
	return routing.AppendRouteOneShot(view, buf, src, dst, m.sim.Rng)
}

// routeTouches reports whether route r from src visits any node in set
// (intermediate or final).
func (m *Manager) routeTouches(r routing.Route, src geom.NodeID, set map[geom.NodeID]bool) bool {
	cur := src
	if set[cur] {
		return true
	}
	for _, d := range r {
		cur = m.topo.Neighbor(cur, d)
		if cur == geom.InvalidNode {
			return true // malformed: treat as touching
		}
		if set[cur] {
			return true
		}
	}
	return false
}

// completeGates powers off every pending router that has fully drained:
// no packets buffered at it and no in-flight packet's remaining route
// crossing it. It returns the routers gated this call.
func (m *Manager) completeGates() []geom.NodeID {
	if len(m.pendingGate) == 0 {
		return nil
	}
	// Collect routers still referenced by in-flight traffic.
	busy := make(map[geom.NodeID]bool)
	for n := range m.pendingGate {
		if m.sim.Routers[n].Occupied() > 0 {
			busy[n] = true
		}
	}
	m.forEachInFlight(func(p *network.Packet, at geom.NodeID, _ int) {
		cur := at
		if m.pendingGate[cur] {
			busy[cur] = true
		}
		for _, d := range p.Route[p.Hop:] {
			cur = m.topo.Neighbor(cur, d)
			if cur == geom.InvalidNode {
				break
			}
			if m.pendingGate[cur] {
				busy[cur] = true
			}
		}
	})
	// NI queues also pin routers (their packets have committed routes).
	for id := range m.sim.NIQueue {
		for vnet := range m.sim.NIQueue[id] {
			q := &m.sim.NIQueue[id][vnet]
			for i := 0; i < q.Len(); i++ {
				p := q.At(i)
				cur := p.Src
				if m.pendingGate[cur] {
					busy[cur] = true
				}
				for _, d := range p.Route {
					cur = m.topo.Neighbor(cur, d)
					if cur == geom.InvalidNode {
						break
					}
					if m.pendingGate[cur] {
						busy[cur] = true
					}
				}
			}
		}
	}
	var gated []geom.NodeID
	for n := range m.pendingGate {
		if !busy[n] {
			gated = append(gated, n)
		}
	}
	sort.Slice(gated, func(i, j int) bool { return gated[i] < gated[j] })
	for _, n := range gated {
		delete(m.pendingGate, n)
		m.topo.DisableRouter(n)
	}
	if len(gated) > 0 {
		m.epoch++
		m.rebuild()
		if m.scheme != nil {
			// A power-off is a clean death from the scheme's perspective:
			// any protocol residue at the router must not survive into a
			// later recovery.
			for _, n := range gated {
				m.scheme.RouterFailed(n)
			}
		}
	}
	return gated
}

// PendingGates returns the routers still draining toward power-off.
func (m *Manager) PendingGates() int { return len(m.pendingGate) }

// failLink applies a link failure with idempotence: severing an
// already-severed wire is a no-op (no rebuild, no epoch bump).
func (m *Manager) failLink(n geom.NodeID, d geom.Direction) Outcome {
	nb := m.topo.Neighbor(n, d)
	if nb == geom.InvalidNode {
		return OutNoop
	}
	if !m.topo.LinkIntact(n, d) && !m.topo.LinkIntact(nb, d.Opposite()) {
		return OutNoop
	}
	m.topo.DisableLink(n, d)
	m.epoch++
	m.rebuild()
	m.repairTraffic()
	return OutApplied
}

// recoverLink restores the bidirectional link n→d. No traffic repair is
// needed — added capacity breaks no committed route — and the stepper
// reads link liveness every cycle, so blocked heads re-arbitrate on the
// next one.
func (m *Manager) recoverLink(n geom.NodeID, d geom.Direction) Outcome {
	nb := m.topo.Neighbor(n, d)
	if nb == geom.InvalidNode {
		return OutNoop
	}
	if m.topo.LinkIntact(n, d) && m.topo.LinkIntact(nb, d.Opposite()) {
		return OutNoop
	}
	m.topo.EnableLink(n, d)
	m.epoch++
	m.rebuild()
	return OutApplied
}

// failRouter applies a router failure. Overlap rules: failing a dead
// router is a no-op; failing a router mid-gate-drain cancels the drain
// and kills it abruptly (resident packets lost) — the failure does not
// wait for the drain it just obsoleted.
func (m *Manager) failRouter(n geom.NodeID) Outcome {
	if !m.topo.RouterAlive(n) {
		return OutNoop
	}
	delete(m.pendingGate, n)
	// Discard the dead router's buffered packets.
	for w := m.sim.OccupancyMirror(n); w != 0; w &= w - 1 {
		m.discard(n, bits.TrailingZeros64(w))
	}
	m.topo.DisableRouter(n)
	m.epoch++
	m.rebuild()
	if m.scheme != nil {
		m.scheme.RouterFailed(n)
	}
	m.repairTraffic()
	return OutApplied
}

// recoverRouter revives router n. Overlap rules: recovering a router
// that is still draining toward power-off revokes the drain — it never
// went down, so the topology, tables, and epoch are untouched and
// routes simply stop avoiding it. Recovering an alive router is a
// no-op; recovering a dead one re-enables it and refreshes routing. The
// stepper reads router liveness every cycle, so queued injections at the
// revived router resume and blocked heads pointing at it re-arbitrate
// on the next one.
func (m *Manager) recoverRouter(n geom.NodeID) Outcome {
	if m.pendingGate[n] {
		delete(m.pendingGate, n)
		return OutRevoked
	}
	if m.topo.RouterAlive(n) {
		return OutNoop
	}
	m.topo.EnableRouter(n)
	m.epoch++
	m.rebuild()
	if m.scheme != nil {
		m.scheme.RouterRecovered(n)
	}
	return OutApplied
}

// discard removes the packet in buffer ci of router at with full
// accounting.
func (m *Manager) discard(at geom.NodeID, ci int) {
	if m.OnRepair != nil {
		m.OnRepair(m.sim.Routers[at].Buf(ci).Pkt, true)
	}
	m.sim.RemovePacket(at, ci)
	m.Dropped++
}

// forEachInFlight visits every buffered packet with its current router
// and buffer, in ascending router id and candidate index.
func (m *Manager) forEachInFlight(fn func(p *network.Packet, at geom.NodeID, ci int)) {
	for id := range m.sim.Routers {
		at := geom.NodeID(id)
		for w := m.sim.OccupancyMirror(at); w != 0; w &= w - 1 {
			ci := bits.TrailingZeros64(w)
			fn(m.sim.Routers[id].Buf(ci).Pkt, at, ci)
		}
	}
}

// repairTraffic walks all live traffic and fixes routes broken by the
// last topology change.
//
// Overlap rule: while gates are draining, replacement routes must keep
// avoiding the pending routers, or a failure elsewhere would shove
// repaired traffic through a router that is trying to drain and
// livelock the gate under churn. A detour-avoiding route is preferred;
// if none exists the repair falls back to the full tables (delaying the
// gate beats dropping a deliverable packet), and only then drops.
func (m *Manager) repairTraffic() {
	var view *topology.Topology
	if len(m.pendingGate) > 0 {
		view = m.topo.Clone()
		for n := range m.pendingGate {
			view.DisableRouter(n)
		}
	}
	reroute := func(from, dst geom.NodeID) (routing.Route, bool) {
		if view != nil {
			if nr, ok := routing.AppendRouteOneShot(view, m.routeBuf[:0], from, dst, m.sim.Rng); ok {
				return nr, true
			}
		}
		return m.minimal.AppendRoute(m.routeBuf[:0], from, dst, m.sim.Rng)
	}
	// In-flight packets: reroute from the router they currently occupy.
	type fix struct {
		p  *network.Packet
		at geom.NodeID
		ci int
	}
	var broken []fix
	m.forEachInFlight(func(p *network.Packet, at geom.NodeID, ci int) {
		if !m.routeValidFrom(p, at) {
			broken = append(broken, fix{p, at, ci})
		}
	})
	for _, b := range broken {
		p := b.p
		if nr, ok := reroute(b.at, p.Dst); ok {
			m.setRoute(p, nr)
			m.Rerouted++
			if m.OnRepair != nil {
				m.OnRepair(p, false)
			}
		} else {
			m.discard(b.at, b.ci)
		}
	}
	// Queued packets: reroute from their source.
	for id := range m.sim.NIQueue {
		src := geom.NodeID(id)
		for vnet := range m.sim.NIQueue[id] {
			m.sim.NIQueue[id][vnet].Filter(func(p *network.Packet) bool {
				if m.routeValidFrom(p, src) {
					return true
				}
				if nr, ok := reroute(src, p.Dst); ok {
					m.setRoute(p, nr)
					m.Rerouted++
					if m.OnRepair != nil {
						m.OnRepair(p, false)
					}
					return true
				}
				if m.OnRepair != nil {
					m.OnRepair(p, true)
				}
				m.sim.DiscardQueued(p)
				m.Dropped++
				return false
			})
		}
		m.sim.RecountNIPending(src)
	}
}

// setRoute installs nr (built in m.routeBuf) as p's route. SetRoute
// copies, so the scratch can be reused for the next repair; the grown
// capacity is kept.
func (m *Manager) setRoute(p *network.Packet, nr routing.Route) {
	m.sim.SetRoute(p, nr)
	m.routeBuf = nr[:0]
}

// Algorithm adapts the manager to routing.Algorithm so traffic
// generators route through the manager's live tables (respecting pending
// gates).
func (m *Manager) Algorithm() routing.Algorithm { return managerAlg{m} }

type managerAlg struct{ m *Manager }

func (a managerAlg) Name() string { return "managed_minimal" }

func (a managerAlg) Route(src, dst geom.NodeID, _ *rand.Rand) (routing.Route, bool) {
	return a.m.Route(src, dst)
}

// AppendRoute implements routing.RouteAppender, so injectors recycle
// their route buffer instead of taking a fresh slice per packet. Like
// Route it draws from the simulator's rng, not the caller's.
func (a managerAlg) AppendRoute(buf routing.Route, src, dst geom.NodeID, _ *rand.Rand) (routing.Route, bool) {
	return a.m.appendRoute(buf, src, dst)
}

// routeValidFrom reports whether p's remaining route is walkable from at
// over the current topology. An escaped packet travels on the escape
// tree and may have taken more hops than its source route holds; its
// remaining route is then empty, and it is repaired like any other
// packet whose route does not end at its destination.
func (m *Manager) routeValidFrom(p *network.Packet, at geom.NodeID) bool {
	cur := at
	for _, d := range p.Route[min(p.Hop, len(p.Route)):] {
		if !m.topo.HasLink(cur, d) {
			return false
		}
		cur = m.topo.Neighbor(cur, d)
	}
	return cur == p.Dst
}

package reconfig

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// TestSubmitOutcomeMatrix pins the overlap rules: events are idempotent
// (failing a dead element and recovering an alive one are noops), gates
// report pending, and only real topology changes report applied.
func TestSubmitOutcomeMatrix(t *testing.T) {
	_, m := mkLiveSim(t, 1)
	n := geom.NodeID(14)
	l := geom.NodeID(20)

	if o, err := m.Submit(Event{Kind: EvFailRouter, Node: n}); o != OutApplied || err != nil {
		t.Fatalf("first fail: %v, %v", o, err)
	}
	if o, _ := m.Submit(Event{Kind: EvFailRouter, Node: n}); o != OutNoop {
		t.Fatalf("fail of dead router must be noop, got %v", o)
	}
	if _, err := m.Submit(Event{Kind: EvGate, Node: n}); err == nil {
		t.Fatal("gating a dead router must error")
	}
	if o, _ := m.Submit(Event{Kind: EvRecoverRouter, Node: n}); o != OutApplied {
		t.Fatalf("recover of dead router must apply, got %v", o)
	}
	if o, _ := m.Submit(Event{Kind: EvRecoverRouter, Node: n}); o != OutNoop {
		t.Fatalf("recover of alive router must be noop, got %v", o)
	}

	if o, _ := m.Submit(Event{Kind: EvFailLink, Node: l, Dir: geom.East}); o != OutApplied {
		t.Fatalf("first link fail must apply, got %v", o)
	}
	if o, _ := m.Submit(Event{Kind: EvFailLink, Node: l, Dir: geom.East}); o != OutNoop {
		t.Fatalf("re-failing a dead link must be noop, got %v", o)
	}
	// The same wire named from the other endpoint is also already dead.
	nb := m.topo.Neighbor(l, geom.East)
	if o, _ := m.Submit(Event{Kind: EvFailLink, Node: nb, Dir: geom.West}); o != OutNoop {
		t.Fatalf("failing the mirror direction of a dead link must be noop, got %v", o)
	}
	if o, _ := m.Submit(Event{Kind: EvRecoverLink, Node: nb, Dir: geom.West}); o != OutApplied {
		t.Fatalf("link recovery must apply, got %v", o)
	}
	if o, _ := m.Submit(Event{Kind: EvRecoverLink, Node: l, Dir: geom.East}); o != OutNoop {
		t.Fatalf("recovering an intact link must be noop, got %v", o)
	}

	if o, err := m.Submit(Event{Kind: EvGate, Node: n}); o != OutPending || err != nil {
		t.Fatalf("gate of idle alive router: %v, %v", o, err)
	}
	if o, _ := m.Submit(Event{Kind: EvGate, Node: n}); o != OutPending {
		t.Fatalf("repeated gate request must stay pending, got %v", o)
	}
}

// TestRecoverRevokesPendingGate: a recover submitted while the router is
// still draining revokes the gate — the router never powers off, the
// topology is unchanged, and the epoch does not advance.
func TestRecoverRevokesPendingGate(t *testing.T) {
	s, m := mkLiveSim(t, 2)
	n := geom.NodeID(21)
	before := m.Epoch()
	if o, _ := m.Submit(Event{Kind: EvGate, Node: n}); o != OutPending {
		t.Fatalf("gate: %v", o)
	}
	if o, _ := m.Submit(Event{Kind: EvRecoverRouter, Node: n}); o != OutRevoked {
		t.Fatalf("recover of draining router must revoke, got %v", o)
	}
	if m.PendingGates() != 0 {
		t.Fatalf("gate still pending after revocation")
	}
	if m.Epoch() != before {
		t.Fatalf("revocation must not advance the epoch: %d -> %d", before, m.Epoch())
	}
	if !s.Topo.RouterAlive(n) {
		t.Fatal("revoked router must still be alive")
	}
	// Nothing left to complete.
	if gated := m.TryCompleteGates(); len(gated) != 0 {
		t.Fatalf("revoked gate completed anyway: %v", gated)
	}
}

// TestFailOverridesGateDrain: an abrupt fail during a graceful drain
// wins — the router dies immediately, and the stale gate must not
// power it off (or anything else) a second time.
func TestFailOverridesGateDrain(t *testing.T) {
	s, m := mkLiveSim(t, 3)
	n := geom.NodeID(15)
	if o, _ := m.Submit(Event{Kind: EvGate, Node: n}); o != OutPending {
		t.Fatalf("gate: %v", o)
	}
	e0 := m.Epoch()
	if o, _ := m.Submit(Event{Kind: EvFailRouter, Node: n}); o != OutApplied {
		t.Fatalf("fail during drain must apply, got %v", o)
	}
	if m.PendingGates() != 0 {
		t.Fatal("pending gate survived the abrupt fail")
	}
	if m.Epoch() != e0+1 {
		t.Fatalf("abrupt fail must advance the epoch once: %d -> %d", e0, m.Epoch())
	}
	if gated := m.TryCompleteGates(); len(gated) != 0 {
		t.Fatalf("dead router gated again: %v", gated)
	}
	if s.Topo.RouterAlive(n) {
		t.Fatal("router should be dead")
	}
	if o, _ := m.Submit(Event{Kind: EvRecoverRouter, Node: n}); o != OutApplied {
		t.Fatalf("recover after overridden drain must apply, got %v", o)
	}
}

// TestEpochAdvancesOnlyOnTopologyChange: noops, revocations, and pending
// gates leave the epoch alone; applied events advance it by exactly one;
// a gate-completion batch advances it once regardless of batch size.
func TestEpochAdvancesOnlyOnTopologyChange(t *testing.T) {
	_, m := mkLiveSim(t, 4)
	e := m.Epoch()
	m.Submit(Event{Kind: EvRecoverRouter, Node: 5}) // noop: alive
	m.Submit(Event{Kind: EvRecoverLink, Node: 5, Dir: geom.East})
	if m.Epoch() != e {
		t.Fatalf("noops advanced the epoch")
	}
	m.Submit(Event{Kind: EvGate, Node: 8})
	m.Submit(Event{Kind: EvGate, Node: 27})
	if m.Epoch() != e {
		t.Fatalf("pending gates advanced the epoch before powering off")
	}
	// Idle mesh: both gates complete in one batch.
	if gated := m.TryCompleteGates(); len(gated) != 2 {
		t.Fatalf("expected both gates to complete, got %v", gated)
	}
	if m.Epoch() != e+1 {
		t.Fatalf("gate batch must advance the epoch exactly once: %d -> %d", e, m.Epoch())
	}
	m.Submit(Event{Kind: EvFailLink, Node: 14, Dir: geom.North})
	if m.Epoch() != e+2 {
		t.Fatalf("applied link fail must advance the epoch by one")
	}
}

// TestSubmitAtOrdering: the scheduled queue fires in (cycle,
// submission-order) — a later-submitted event for an earlier cycle runs
// first, and two events due the same cycle run in submission order (here
// fail-then-recover nets out to an alive router; the reverse order would
// leave it dead).
func TestSubmitAtOrdering(t *testing.T) {
	s, m := mkLiveSim(t, 5)
	n := geom.NodeID(9)
	other := geom.NodeID(26)

	m.SubmitAt(30, Event{Kind: EvFailRouter, Node: n})
	m.SubmitAt(30, Event{Kind: EvRecoverRouter, Node: n})
	m.SubmitAt(10, Event{Kind: EvFailRouter, Node: other})
	if m.PendingEvents() != 3 {
		t.Fatalf("queue should hold 3 events, got %d", m.PendingEvents())
	}
	for s.Now < 20 {
		s.Step()
		m.Tick()
	}
	if s.Topo.RouterAlive(other) {
		t.Fatal("cycle-10 fail should have fired by cycle 20")
	}
	if m.PendingEvents() != 2 {
		t.Fatalf("cycle-30 events fired early (pending=%d)", m.PendingEvents())
	}
	for s.Now < 40 {
		s.Step()
		m.Tick()
	}
	if m.PendingEvents() != 0 {
		t.Fatalf("queue not drained: %d", m.PendingEvents())
	}
	if !s.Topo.RouterAlive(n) {
		t.Fatal("same-cycle fail+recover must net out alive (submission order)")
	}
}

// TestScheduledGateOnDeadRouterDegrades: a queued gate whose target died
// before it came due degrades to a noop instead of erroring or wedging
// the queue.
func TestScheduledGateOnDeadRouterDegrades(t *testing.T) {
	s, m := mkLiveSim(t, 6)
	n := geom.NodeID(22)
	m.SubmitAt(50, Event{Kind: EvGate, Node: n})
	if o, _ := m.Submit(Event{Kind: EvFailRouter, Node: n}); o != OutApplied {
		t.Fatal("fail should apply")
	}
	for s.Now < 60 {
		s.Step()
		m.Tick()
	}
	if m.PendingEvents() != 0 || m.PendingGates() != 0 {
		t.Fatalf("stale gate wedged the queue: events=%d gates=%d",
			m.PendingEvents(), m.PendingGates())
	}
	if s.Topo.RouterAlive(n) {
		t.Fatal("router should still be dead")
	}
}

// TestLinkFlapChargesEveryEpoch: failing, recovering and failing one
// link again revisits a topology the manager has seen. Every step is
// still an epoch charged the entries its repair rewrote — counted by a
// shadow table repaired alongside — and the manager's one table must
// equal a cold compile of every state it visits.
func TestLinkFlapChargesEveryEpoch(t *testing.T) {
	s, m := mkLiveSim(t, 7)
	n := s.Topo.NumNodes()
	shadow := routing.NewMinimal(s.Topo)
	table := m.minimal
	step := func(ev Event, misses int64) {
		t.Helper()
		before := m.TableStats()
		m.Submit(ev)
		st := m.TableStats()
		want := shadow.Recompile(s.Topo).EntriesRewritten
		if want <= 0 || st.EntriesRewritten-before.EntriesRewritten != want {
			t.Fatalf("after %v: charged %d entries, the repair rewrote %d",
				ev, st.EntriesRewritten-before.EntriesRewritten, want)
		}
		if st.Hits != 0 || st.Misses != misses {
			t.Fatalf("after %v: want %d misses and no hit, got %+v", ev, misses, st)
		}
		if m.minimal != table || !sameTables(m.minimal, routing.NewMinimal(s.Topo), n) {
			t.Fatalf("after %v: the manager's one table differs from a cold compile", ev)
		}
	}
	step(Event{Kind: EvFailLink, Node: 14, Dir: geom.East}, 2)
	step(Event{Kind: EvRecoverLink, Node: 14, Dir: geom.East}, 3)
	step(Event{Kind: EvFailLink, Node: 14, Dir: geom.East}, 4)
}

// TestRepairAvoidsPendingGates: in-flight traffic rerouted after a link
// fail must not be detoured through a router that is draining toward
// power-off — the one-shot detour would be invalidated moments later.
func TestRepairAvoidsPendingGates(t *testing.T) {
	s, m := mkLiveSim(t, 8)
	rng := rand.New(rand.NewSource(80))
	drive(s, m, rng, 200, 0.08)
	conserve(t, s)

	// Gate a central router, then immediately fail a link next to it so
	// repairTraffic has to route around both holes at once.
	gate := geom.NodeID(14)
	if o, _ := m.Submit(Event{Kind: EvGate, Node: gate}); o != OutPending {
		t.Fatal("gate should be pending")
	}
	repaired := make(map[int64]bool)
	m.OnRepair = func(p *network.Packet, dropped bool) {
		if !dropped {
			repaired[p.ID] = true
		}
	}
	m.Submit(Event{Kind: EvFailLink, Node: 13, Dir: geom.North})
	m.OnRepair = nil
	conserve(t, s)

	// Pre-gate packets may legitimately still route through the draining
	// router — the drain waits for exactly those. But a packet the link
	// fail just REROUTED must not be detoured into the pending gate: that
	// one-shot detour would be invalidated when the gate completes.
	m.forEachInFlight(func(p *network.Packet, at geom.NodeID) {
		if !repaired[p.ID] {
			return
		}
		cur := at
		for i, d := range p.Route[p.Hop:] {
			cur = m.topo.Neighbor(cur, d)
			if cur == geom.InvalidNode {
				t.Fatalf("packet %d has a malformed remaining route", p.ID)
			}
			if cur == gate && i != len(p.Route[p.Hop:])-1 {
				t.Fatalf("repaired packet %d detoured through the draining router %v", p.ID, gate)
			}
		}
	})
	// Drain to completion: the gate must still complete despite overlap.
	for i := 0; i < 4000 && m.PendingGates() > 0; i++ {
		s.Step()
		m.Tick()
	}
	if m.PendingGates() != 0 {
		t.Fatal("gate never completed under overlapping repair")
	}
	conserve(t, s)
}

package reconfig

import (
	"fmt"

	"repro/internal/geom"
)

// EventKind enumerates the runtime topology events the manager applies.
type EventKind uint8

const (
	// EvGate requests graceful power-off of a router: routes avoid it,
	// traffic drains, and the first Tick that finds it drained powers it
	// off.
	EvGate EventKind = iota
	// EvFailLink abruptly severs the bidirectional link Node→Dir. Queued
	// and in-flight packets whose remaining route crossed it are rerouted
	// from where they are, or dropped if their destination became
	// unreachable.
	EvFailLink
	// EvRecoverLink restores the bidirectional link Node→Dir.
	EvRecoverLink
	// EvFailRouter abruptly kills router Node: packets buffered at it are
	// lost, and other affected traffic is rerouted as for EvFailLink.
	EvFailRouter
	// EvRecoverRouter revives router Node (a failed or a gated one), or
	// revokes its in-progress gate drain if it never actually powered off.
	EvRecoverRouter
)

func (k EventKind) String() string {
	switch k {
	case EvGate:
		return "gate"
	case EvFailLink:
		return "fail_link"
	case EvRecoverLink:
		return "recover_link"
	case EvFailRouter:
		return "fail_router"
	case EvRecoverRouter:
		return "recover_router"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one topology mutation request. Dir is meaningful only for
// the link kinds.
type Event struct {
	Kind EventKind
	Node geom.NodeID
	Dir  geom.Direction
}

func (e Event) String() string {
	switch e.Kind {
	case EvFailLink, EvRecoverLink:
		return fmt.Sprintf("%v(%v,%v)", e.Kind, e.Node, e.Dir)
	default:
		return fmt.Sprintf("%v(%v)", e.Kind, e.Node)
	}
}

// Outcome describes what applying an event actually did. Overlapping
// events make this non-obvious: a recover may merely revoke a pending
// drain, and a repeated fail is a no-op.
type Outcome uint8

const (
	// OutNoop: the event found its target already in the requested state
	// (fail of a dead element, recover of an alive one).
	OutNoop Outcome = iota
	// OutApplied: the topology changed (and the epoch advanced).
	OutApplied
	// OutPending: a gate request was accepted; the drain is in progress.
	OutPending
	// OutRevoked: the event cancelled an in-progress gate drain on the
	// same router. The topology is unchanged (the router never powered
	// off), so the epoch does not advance.
	OutRevoked
)

func (o Outcome) String() string {
	switch o {
	case OutNoop:
		return "noop"
	case OutApplied:
		return "applied"
	case OutPending:
		return "pending"
	case OutRevoked:
		return "revoked"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// SchemeHandler is implemented by recovery schemes (core.Controller)
// that hold per-router protocol state the manager cannot see: FSMs,
// fences installed by in-flight recovery rounds, bubble flags. The
// manager notifies it after each applied router event so the scheme
// can reset residue that would otherwise outlive the router (a dead
// FSM wedged mid-recovery stays in S_SB_ACTIVE forever, and its fences
// block traffic with no enable left to clear them). Link events need no
// notice: sends and forwards already drop on a dead link and the FSM
// timeouts clean up the round, while a recovered link is simply used by
// the next transmission.
//
// The interface lives here, implemented by core, so core never imports
// reconfig (reconfig's tests import core).
type SchemeHandler interface {
	// RouterFailed runs after router n was disabled (abrupt failure or
	// completed gate) and its resident packets discarded.
	RouterFailed(n geom.NodeID)
	// RouterRecovered runs after router n was re-enabled.
	RouterRecovered(n geom.NodeID)
}

// scheduledEvent is one queue entry; seq breaks ties among events
// scheduled for the same cycle (submission order wins).
type scheduledEvent struct {
	at  int64
	seq int64
	ev  Event
}

// SetScheme registers a recovery-scheme handler notified after each
// applied router event. Pass core.Controller (it implements
// SchemeHandler) so Static Bubble protocol state tracks runtime failures
// and recoveries.
func (m *Manager) SetScheme(h SchemeHandler) { m.scheme = h }

// Epoch returns the reconfiguration epoch: the number of applied
// topology mutations (gate completions count once per batch). Compiled
// routes and one-shot detours are valid only within the epoch they
// were computed in; callers caching routes must revalidate on change.
func (m *Manager) Epoch() int64 { return m.epoch }

// Submit applies ev immediately, returning what it did. Events are
// idempotent and overlap-safe: failing a dead element or recovering an
// alive one is OutNoop, a fail overrides a same-router gate drain, and
// a recover of a draining router revokes the drain (OutRevoked). The
// only error is a gate request for a dead router.
func (m *Manager) Submit(ev Event) (Outcome, error) {
	return m.apply(ev)
}

// SubmitAt schedules ev for the first Tick at or after cycle `at`.
// Events fire in (cycle, submission-order) order. A scheduled event
// that turns out to be impossible when due (gating a router that died
// in the meantime) degrades to a no-op rather than erroring: with
// overlap allowed, the state it assumed may legitimately be gone.
func (m *Manager) SubmitAt(at int64, ev Event) {
	m.seq++
	m.queue = append(m.queue, scheduledEvent{at: at, seq: m.seq, ev: ev})
	for i := len(m.queue) - 1; i > 0; i-- {
		if m.queue[i-1].at <= m.queue[i].at {
			break
		}
		m.queue[i-1], m.queue[i] = m.queue[i], m.queue[i-1]
	}
}

// PendingEvents returns the number of scheduled events not yet due.
func (m *Manager) PendingEvents() int { return len(m.queue) }

// Tick is the per-cycle pump: it applies every scheduled event due at
// or before the simulator's current cycle, then powers off every gating
// router that has drained, returning the routers powered off this call.
// Call it once per cycle (after Step) when using SubmitAt or EvGate.
func (m *Manager) Tick() []geom.NodeID {
	now := m.sim.Now
	n := 0
	for n < len(m.queue) && m.queue[n].at <= now {
		n++
	}
	if n > 0 {
		for i := 0; i < n; i++ {
			m.apply(m.queue[i].ev) // impossible-when-due degrades to noop
		}
		m.queue = m.queue[:copy(m.queue, m.queue[n:])]
	}
	return m.completeGates()
}

// apply dispatches one event through the overlap rules.
func (m *Manager) apply(ev Event) (Outcome, error) {
	switch ev.Kind {
	case EvGate:
		// Routes avoid a pending router at once (Route); completeGates
		// powers it off once drained.
		if !m.pendingGate[ev.Node] && !m.topo.RouterAlive(ev.Node) {
			return OutNoop, fmt.Errorf("reconfig: router %v is not alive", ev.Node)
		}
		m.pendingGate[ev.Node] = true
		return OutPending, nil
	case EvRecoverRouter:
		return m.recoverRouter(ev.Node), nil
	case EvFailRouter:
		return m.failRouter(ev.Node), nil
	case EvFailLink:
		return m.failLink(ev.Node, ev.Dir), nil
	case EvRecoverLink:
		return m.recoverLink(ev.Node, ev.Dir), nil
	}
	return OutNoop, fmt.Errorf("reconfig: unknown event kind %v", ev.Kind)
}

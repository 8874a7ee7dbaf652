package refmodel

// Churn differential scenarios: overlapping reconfiguration events —
// fails landing mid-drain, revoked power-offs, recoveries of routers
// hosting recovery state, flapping links, scheduled event queues — must
// leave both cores (event and refmodel) cycle-exact. Each scenario
// mirrors the same Submit/SubmitAt/Tick calls into every unit's manager and
// additionally demands the *managers* agree: identical outcomes, identical
// epochs, identical pending queues, and identical gate completions, every
// cycle. A divergence here isolates either nondeterminism in the overlap
// state machine or a reconfiguration path that leaves the stepper's active
// set or request vectors stale.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// churnStep is one scripted reconfiguration action. With queueAt > 0 the
// event goes through SubmitAt(queueAt) at cycle cyc (exercising the
// scheduled queue); otherwise it is Submitted immediately at cyc.
type churnStep struct {
	cyc     int
	ev      reconfig.Event
	queueAt int64
}

// churnScenario is a scripted overlap scenario run on a fixed 6×6 mesh
// (node IDs are stable: node = y*6+x, so 14 = (2,2) is central).
type churnScenario struct {
	name   string
	seed   int64
	cycles int
	tdd    int64
	spin   bool
	steps  []churnStep
}

// runChurnScenario drives one scripted scenario through both cores,
// comparing simulator state cycle-for-cycle and manager state
// action-for-action.
func runChurnScenario(sc churnScenario) error {
	hrng := rand.New(rand.NewSource(sc.seed))
	const w, h = 6, 6
	simSeed := hrng.Int63()

	units := []*unit{{name: "event"}, {name: "refmodel"}}
	for _, u := range units {
		topo := topology.NewMesh(w, h)
		u.sim = network.New(topo, network.Config{}, rand.New(rand.NewSource(simSeed)))
		u.step = u.sim.Step
		if u.name == "refmodel" {
			u.step = New(u.sim).Step
			u.sim.SetPooling(false)
		}
		tdd := sc.tdd
		if tdd == 0 {
			tdd = 34
		}
		u.ctl = core.Attach(u.sim, core.Options{TDD: tdd, Spin: sc.spin})
		u.mgr = reconfig.New(u.sim)
		u.mgr.SetScheme(u.ctl)
		u.delivered = make(map[int64]int64)
		d := u.delivered
		u.sim.OnDeliver = func(p *network.Packet) { d[p.ID] = p.DeliveredAt }
	}
	ev := units[0]

	// route mirrors the manager-table lookup across units, as in the main
	// differential harness.
	routeBuf := make([]routing.Route, len(units))
	route := func(src, dst geom.NodeID) ([]routing.Route, bool, error) {
		ok0 := false
		for i, u := range units {
			rt, ok := u.mgr.Route(src, dst)
			if i == 0 {
				ok0 = ok
			} else if ok != ok0 {
				return nil, false, fmt.Errorf("route tables diverged for %v->%v (%s vs %s)",
					src, dst, ev.name, u.name)
			}
			routeBuf[i] = rt
		}
		return routeBuf, ok0, nil
	}

	window := sc.cycles * 3 / 4
	const rate = 0.06
	for cyc := 0; cyc < sc.cycles; cyc++ {
		// Scripted actions, mirrored with outcome equality.
		for _, st := range sc.steps {
			if st.cyc != cyc {
				continue
			}
			if st.queueAt > 0 {
				for _, u := range units {
					u.mgr.SubmitAt(st.queueAt, st.ev)
				}
				continue
			}
			o0, e0 := ev.mgr.Submit(st.ev)
			for _, u := range units[1:] {
				if o, e := u.mgr.Submit(st.ev); o != o0 || (e == nil) != (e0 == nil) {
					return fmt.Errorf("cycle %d: %v outcome diverged: %s (%v,%v) vs %s (%v,%v)",
						cyc, st.ev, ev.name, o0, e0, u.name, o, e)
				}
			}
		}
		// The per-cycle pump, with manager-state equality.
		g0 := ev.mgr.Tick()
		for _, u := range units[1:] {
			gu := u.mgr.Tick()
			if len(gu) != len(g0) {
				return fmt.Errorf("cycle %d: gate completions diverged: %s %v vs %s %v",
					cyc, ev.name, g0, u.name, gu)
			}
			for i := range g0 {
				if gu[i] != g0[i] {
					return fmt.Errorf("cycle %d: gate completion order diverged: %s %v vs %s %v",
						cyc, ev.name, g0, u.name, gu)
				}
			}
			if u.mgr.Epoch() != ev.mgr.Epoch() {
				return fmt.Errorf("cycle %d: epoch diverged: %s %d vs %s %d",
					cyc, ev.name, ev.mgr.Epoch(), u.name, u.mgr.Epoch())
			}
			if u.mgr.PendingEvents() != ev.mgr.PendingEvents() || u.mgr.PendingGates() != ev.mgr.PendingGates() {
				return fmt.Errorf("cycle %d: pending queues diverged (%s): events %d vs %d, gates %d vs %d",
					cyc, u.name, ev.mgr.PendingEvents(), u.mgr.PendingEvents(),
					ev.mgr.PendingGates(), u.mgr.PendingGates())
			}
		}

		if cyc < window {
			alive := ev.sim.Topo.AliveRouters()
			for _, src := range alive {
				if hrng.Float64() >= rate {
					continue
				}
				dst := alive[hrng.Intn(len(alive))]
				if dst == src {
					continue
				}
				rts, ok, err := route(src, dst)
				if err != nil {
					return fmt.Errorf("cycle %d: %w", cyc, err)
				}
				if !ok {
					for _, u := range units {
						u.sim.Drop()
					}
					continue
				}
				ln := 1
				if hrng.Intn(2) == 0 {
					ln = 5
				}
				vnet := hrng.Intn(network.NumVnets)
				for i, u := range units {
					u.sim.Enqueue(u.sim.NewPacket(src, dst, vnet, ln, rts[i]))
				}
			}
		}

		for _, u := range units {
			u.step()
		}

		for _, u := range units {
			s := u.sim
			if got := s.Stats.Delivered + s.InFlight() + s.QueuedPackets() + s.Stats.Lost; got != s.Stats.Offered {
				return fmt.Errorf("cycle %d: %s conservation violated: %d != Offered %d",
					cyc, u.name, got, s.Stats.Offered)
			}
			if cyc%checkEvery == checkEvery-1 {
				if err := checkUnit(cyc, u); err != nil {
					return err
				}
			}
		}
		for _, u := range units[1:] {
			if u.sim.Stats != ev.sim.Stats {
				return fmt.Errorf("cycle %d: stats diverged\n%-9s %+v\n%-9s %+v",
					cyc, ev.name+":", ev.sim.Stats, u.name+":", u.sim.Stats)
			}
			if u.sim.InFlight() != ev.sim.InFlight() || u.sim.QueuedPackets() != ev.sim.QueuedPackets() {
				return fmt.Errorf("cycle %d: occupancy diverged (%s)", cyc, u.name)
			}
			if u.sim.LastProgress != ev.sim.LastProgress {
				return fmt.Errorf("cycle %d: LastProgress diverged (%s): %d vs %d",
					cyc, u.name, ev.sim.LastProgress, u.sim.LastProgress)
			}
		}
	}

	for _, u := range units[1:] {
		if len(u.delivered) != len(ev.delivered) {
			return fmt.Errorf("delivery count diverged (%s): %d vs %d", u.name, len(ev.delivered), len(u.delivered))
		}
		for id, at := range ev.delivered {
			if ut, ok := u.delivered[id]; !ok || ut != at {
				return fmt.Errorf("packet %d delivery time diverged: %s %d vs %s %d",
					id, ev.name, at, u.name, ut)
			}
		}
	}
	return nil
}

// TestDifferentialChurnOverlap runs the scripted overlapping-event
// scenarios cycle-exact across all six cores. Node numbering: 6×6 mesh,
// node = y*6 + x.
func TestDifferentialChurnOverlap(t *testing.T) {
	ev := func(k reconfig.EventKind, n geom.NodeID) reconfig.Event {
		return reconfig.Event{Kind: k, Node: n}
	}
	lnk := func(k reconfig.EventKind, n geom.NodeID, d geom.Direction) reconfig.Event {
		return reconfig.Event{Kind: k, Node: n, Dir: d}
	}
	scenarios := []churnScenario{
		{
			// A second failure lands while router 14's gate drain is in
			// progress; the drain must complete around the new hole.
			name: "gate_drain_with_concurrent_link_fail", seed: 201, cycles: 900,
			steps: []churnStep{
				{cyc: 100, ev: ev(reconfig.EvGate, 14)},
				{cyc: 110, ev: lnk(reconfig.EvFailLink, 20, geom.East)},
				{cyc: 400, ev: ev(reconfig.EvRecoverRouter, 14)},
			},
		},
		{
			// The power-off is revoked mid-drain: the router never dies, no
			// epoch advances for the revocation, and traffic resumes
			// through it.
			name: "revoked_poweroff", seed: 202, cycles: 800,
			steps: []churnStep{
				{cyc: 100, ev: ev(reconfig.EvGate, 21)},
				{cyc: 104, ev: ev(reconfig.EvRecoverRouter, 21)},
				{cyc: 300, ev: ev(reconfig.EvGate, 21)},
				{cyc: 320, ev: ev(reconfig.EvUngate, 21)},
			},
		},
		{
			// An abrupt fail overrides the same router's graceful drain: the
			// in-progress gate must not complete later (no double power-off).
			name: "fail_overrides_gate_drain", seed: 203, cycles: 900,
			steps: []churnStep{
				{cyc: 100, ev: ev(reconfig.EvGate, 15)},
				{cyc: 103, ev: ev(reconfig.EvFailRouter, 15)},
				{cyc: 500, ev: ev(reconfig.EvRecoverRouter, 15)},
			},
		},
		{
			// Rapid fail→recover→fail on one router: FSM resets, fence
			// sweeps, and table invalidations must replay identically.
			name: "fail_recover_fail_same_router", seed: 204, cycles: 1000,
			steps: []churnStep{
				{cyc: 80, ev: ev(reconfig.EvFailRouter, 8)},
				{cyc: 240, ev: ev(reconfig.EvRecoverRouter, 8)},
				{cyc: 300, ev: ev(reconfig.EvFailRouter, 8)},
				{cyc: 600, ev: ev(reconfig.EvRecoverRouter, 8)},
			},
		},
		{
			// A link flaps while its endpoint router also fails and recovers:
			// idempotence (re-failing the dead link is a noop) plus correct
			// liveness once everything is back.
			name: "link_flap_with_router_overlap", seed: 205, cycles: 1000,
			steps: []churnStep{
				{cyc: 90, ev: lnk(reconfig.EvFailLink, 14, geom.North)},
				{cyc: 150, ev: ev(reconfig.EvFailRouter, 14)},
				{cyc: 160, ev: lnk(reconfig.EvFailLink, 14, geom.North)}, // noop: endpoint dead
				{cyc: 350, ev: ev(reconfig.EvRecoverRouter, 14)},
				{cyc: 360, ev: lnk(reconfig.EvRecoverLink, 14, geom.North)},
				{cyc: 420, ev: lnk(reconfig.EvRecoverLink, 14, geom.North)}, // noop: already intact
			},
		},
		{
			// The scheduled queue under overlap: recoveries queued behind
			// future cycles while more failures keep landing, including two
			// events due the same cycle (submission order must win in every
			// core).
			name: "scheduled_queue_overlap", seed: 206, cycles: 1100,
			steps: []churnStep{
				{cyc: 60, ev: ev(reconfig.EvFailRouter, 9)},
				{cyc: 60, ev: ev(reconfig.EvRecoverRouter, 9), queueAt: 500},
				{cyc: 120, ev: lnk(reconfig.EvFailLink, 27, geom.West)},
				{cyc: 120, ev: lnk(reconfig.EvRecoverLink, 27, geom.West), queueAt: 500},
				{cyc: 200, ev: ev(reconfig.EvFailRouter, 28)},
				{cyc: 200, ev: ev(reconfig.EvRecoverRouter, 28), queueAt: 700},
			},
		},
		{
			// A scheduled gate whose target dies before the gate is due: the
			// queued event must degrade to a noop identically everywhere.
			name: "stale_scheduled_gate", seed: 207, cycles: 900,
			steps: []churnStep{
				{cyc: 50, ev: ev(reconfig.EvGate, 22), queueAt: 400},
				{cyc: 200, ev: ev(reconfig.EvFailRouter, 22)},
				{cyc: 600, ev: ev(reconfig.EvRecoverRouter, 22)},
			},
		},
		{
			// Churn during a deadlock-recovery storm: a hair-trigger TDD keeps
			// SB rounds running while routers fail and recover under them.
			name: "churn_during_recovery_storm", seed: 208, cycles: 1200, tdd: 20,
			steps: []churnStep{
				{cyc: 150, ev: ev(reconfig.EvFailRouter, 14)},
				{cyc: 152, ev: lnk(reconfig.EvFailLink, 7, geom.East)},
				{cyc: 400, ev: ev(reconfig.EvRecoverRouter, 14)},
				{cyc: 402, ev: lnk(reconfig.EvRecoverLink, 7, geom.East)},
				{cyc: 500, ev: ev(reconfig.EvFailRouter, 21)},
				{cyc: 800, ev: ev(reconfig.EvRecoverRouter, 21)},
			},
		},
		{
			// The same storm under SPIN-mode recovery.
			name: "churn_during_spin_storm", seed: 209, cycles: 1200, tdd: 20, spin: true,
			steps: []churnStep{
				{cyc: 150, ev: ev(reconfig.EvFailRouter, 14)},
				{cyc: 400, ev: ev(reconfig.EvRecoverRouter, 14)},
				{cyc: 500, ev: lnk(reconfig.EvFailLink, 9, geom.North)},
				{cyc: 800, ev: lnk(reconfig.EvRecoverLink, 9, geom.North)},
			},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			if err := runChurnScenario(sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

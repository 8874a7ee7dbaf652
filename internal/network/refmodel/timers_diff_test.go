package refmodel

// The fused pass reads buffer timers as words (network/dense.go): pend
// and drain bits set where ReadyAt and FreeAt are written, cleared by a
// cycle wheel when they run out. Two ways of overwriting a timer before
// it runs out would leave a wheel entry that clears a later timer's bit
// early, or a bit no entry ever clears; each test below builds one of
// them by hand on a 3x1 mesh and holds Step to the refmodel's full scan
// cycle by cycle, with validate.Check's exact timer-word check on both.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

// timerFleet builds a Step unit and a refmodel unit over a 3x1 mesh
// (routers 0, 1, 2 west to east) with default latencies, recording
// delivery cycles.
func timerFleet() []*unit {
	units := []*unit{{name: "step"}, {name: "refmodel"}}
	for _, u := range units {
		u.sim = network.New(topology.NewMesh(3, 1), network.Config{}, rand.New(rand.NewSource(1)))
		u.step = u.sim.Step
		if u.name == "refmodel" {
			u.step = New(u.sim).Step
			u.sim.SetPooling(false)
		}
		u.delivered = make(map[int64]int64)
		d := u.delivered
		u.sim.OnDeliver = func(p *network.Packet) { d[p.ID] = p.DeliveredAt }
	}
	return units
}

// runTimerFleet steps the fleet for cycles cycles, calling poke between
// cycles (before every step, with the cycle about to run), and fails on
// the first Stats divergence or invariant violation.
func runTimerFleet(t *testing.T, units []*unit, cycles int, poke func(cyc int)) {
	t.Helper()
	ref := units[1].sim
	for cyc := 0; cyc < cycles; cyc++ {
		poke(cyc)
		for _, u := range units {
			u.step()
			if vs := validate.Check(u.sim, nil); len(vs) > 0 {
				t.Fatalf("cycle %d: %s: %v", cyc, u.name, vs[0])
			}
		}
		if units[0].sim.Stats != ref.Stats {
			t.Fatalf("cycle %d: stats diverged\nstep:     %+v\nrefmodel: %+v", cyc, units[0].sim.Stats, ref.Stats)
		}
	}
	if fmt.Sprint(units[0].delivered) != fmt.Sprint(units[1].delivered) {
		t.Fatalf("delivery cycles diverged: step %v, refmodel %v", units[0].delivered, units[1].delivered)
	}
}

// TestTimerRemoveInFlightThenRefill: router 0 sends P1 east at cycle 0,
// so it sits in router 1's West slot 0 with its head in flight until
// cycle 2. Between cycles 0 and 1 it is removed (RemovePacket), and at
// cycle 1 router 0 refills the same slot with P3, whose head arrives at
// cycle 3. P1's timer, due at cycle 2, must not make P3 ready a cycle
// early.
func TestTimerRemoveInFlightThenRefill(t *testing.T) {
	units := timerFleet()
	var p3 [2]*network.Packet
	for i, u := range units {
		s := u.sim
		s.PlacePacket(0, geom.Local, 0, s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East}))
		p3[i] = s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
		s.PlacePacket(0, geom.Local, 1, p3[i])
	}
	runTimerFleet(t, units, 12, func(cyc int) {
		if cyc != 1 {
			return
		}
		for _, u := range units {
			s := u.sim
			vc := &s.Routers[1].In[geom.West][0]
			if vc.Pkt == nil || vc.ReadyAt != 2 {
				t.Fatalf("%s: setup: router 1 West slot 0 holds %v ready at %d, want P1 ready at 2", u.name, vc.Pkt, vc.ReadyAt)
			}
			s.RemovePacket(1, int(geom.West)*network.SlotsPerPort)
		}
	})
	for i, u := range units {
		if got := u.delivered[p3[i].ID]; got == 0 {
			t.Fatalf("%s: P3 not delivered", u.name)
		}
		if u.sim.Stats.Lost != 1 {
			t.Fatalf("%s: lost %d packets, want P1 alone", u.name, u.sim.Stats.Lost)
		}
	}
}

// TestTimerRotationThenWake: P_A waits in router 0's East slot wanting
// East, P_B in router 1's West slot wanting West — a two-router
// dependency cycle. A hand rotation in the PreCycle of cycle 3 (what
// core's SPIN does) swaps them across the link, advances both hops and
// rewrites both ReadyAt to cycle 5, then calls Wake. Both must be
// granted ejection at cycle 5, delivered a cycle later: not earlier
// (pend re-derived from the rewritten ReadyAt), not never (its timer
// filed on the wheel).
func TestTimerRotationThenWake(t *testing.T) {
	units := timerFleet()
	const rotateAt = 3
	for _, u := range units {
		s := u.sim
		// Hold both links busy until the rotation so neither packet moves
		// on its own.
		s.Routers[0].OutFreeAt[geom.East] = 1 << 40
		s.Routers[1].OutFreeAt[geom.West] = 1 << 40
		s.PlacePacket(0, geom.East, 0, s.NewPacket(0, 1, 0, 1, routing.Route{geom.East}))
		s.PlacePacket(1, geom.West, 0, s.NewPacket(1, 0, 0, 1, routing.Route{geom.West}))
		s.PreCycle = append(s.PreCycle, func(s *network.Sim) {
			if s.Now != rotateAt {
				return
			}
			a, b := &s.Routers[0].In[geom.East][0], &s.Routers[1].In[geom.West][0]
			a.Pkt, b.Pkt = b.Pkt, a.Pkt
			for _, vc := range []*network.VC{a, b} {
				vc.Pkt.Hop++
				vc.ReadyAt = s.Now + 2
			}
			s.Wake(0)
		})
	}
	runTimerFleet(t, units, 12, func(int) {})
	for _, u := range units {
		if len(u.delivered) != 2 {
			t.Fatalf("%s: delivered %v, want both packets", u.name, u.delivered)
		}
		for id, at := range u.delivered {
			if at != rotateAt+3 {
				t.Fatalf("%s: packet %d delivered at cycle %d, want %d", u.name, id, at, rotateAt+3)
			}
		}
	}
}

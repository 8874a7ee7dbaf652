package refmodel

// The registered request vectors (network/dense.go) are state the fused
// allocation pass trusts instead of looking at packets, so every way a
// buffered packet's wanted output can change must keep them exact. This
// test drives all of those ways in one run — grants and injections
// (registered at the fill), SPIN rotations (ReplacePacket), a reconfig
// link failure (Reroute on buffered packets), PlacePacket / RemovePacket
// / DeliverOutOfBand between cycles, and, in the escape variant,
// promotions (PromoteEscape) and a tree swap after the link failure
// (SetEscapeTree); the adaptive variant runs the same schedule under a
// hop class, whose choose-per-visit word and mask bytes follow the same
// rules — and asserts, in a PreCycle hook that runs after every other
// hook and therefore immediately before the sweep, that the vectors of
// both units, refmodel-stepped and fused, equal a recomputation from the
// buffers, while Stats stay equal to the refmodel after every cycle.
// Dropping the re-registration from any one of them (or letting grant
// write the vectors before the packet has moved) fails it.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

func TestRequestVectorsMatchRebuild(t *testing.T) {
	for _, tc := range []struct {
		scheme   string
		topoSeed int64
	}{
		{"sb", 11},
		{"spin", 23},
		{"escape", 31},
		{"adaptive", 43},
	} {
		t.Run(tc.scheme, func(t *testing.T) { requestVectorRun(t, tc.scheme, tc.topoSeed) })
	}
}

func requestVectorRun(t *testing.T, scheme string, topoSeed int64) {
	const (
		cycles     = 2400
		window     = 1400
		rate       = 0.30 // past saturation on a faulty 8x8
		failAt     = 300
		swapAt     = 900 // escape variant: a tree swap
		pokeEvery  = 97
		linkFaults = 12
	)
	// The adaptive variant recovers by SPIN: rotations refill buffers in
	// place, so the hop class's word and mask bytes must follow
	// ReplacePacket.
	adapt := scheme == "adaptive"
	spin, esc := scheme == "spin" || adapt, scheme == "escape"
	units := []*unit{{name: "refmodel"}, {name: "step"}}
	var drift error
	for i, u := range units {
		topo := topology.RandomIrregular(8, 8, topology.LinkFaults, linkFaults, topoSeed)
		u.sim = network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
		u.step = u.sim.Step
		if i == 0 {
			u.step = New(u.sim).Step
			u.sim.SetPooling(false)
		}
		if esc {
			escape.Attach(u.sim, routing.NewUpDown(topo))
		} else {
			u.ctl = core.Attach(u.sim, core.Options{TDD: 24, Spin: spin})
		}
		if adapt {
			// Packets keep their source routes (reconfig reroutes them) but
			// follow the hop class.
			adaptive.Attach(u.sim)
		}
		u.mgr = reconfig.New(u.sim)
		name := u.name
		u.sim.PreCycle = append(u.sim.PreCycle, func(s *network.Sim) {
			for _, v := range validate.Check(s, nil) {
				if (v.Invariant == "request-vectors" || v.Invariant == "escape-class" || v.Invariant == "hop-class") && drift == nil {
					drift = fmt.Errorf("cycle %d: %s: %v", s.Now, name, v)
				}
			}
		})
	}
	ref := units[0].sim
	hrng := rand.New(rand.NewSource(topoSeed + 1))

	findVC := func(from int, pred func(vc *network.VC, port geom.Direction, slot int) bool) (geom.NodeID, geom.Direction, int, bool) {
		return findBuffer(ref, from, pred)
	}
	var placed, removed, sideDelivered int

	for cyc := 0; cyc < cycles; cyc++ {
		if cyc == failAt {
			links := ref.Topo.AliveUndirectedLinks()
			l := links[hrng.Intn(len(links))]
			for _, u := range units {
				u.mgr.Submit(reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir})
				if esc {
					// The old tree may cross the dead link.
					u.sim.SetEscapeTree(routing.NewUpDown(u.sim.Topo))
				}
			}
		}
		if esc && cyc == swapAt {
			for _, u := range units {
				u.sim.SetEscapeTree(routing.NewUpDownRooted(u.sim.Topo, routing.RootLowestID))
			}
		}
		// Out-of-cycle pokes.
		if cyc%pokeEvery == pokeEvery-1 {
			start := hrng.Intn(len(ref.Routers))
			// Place a fresh packet into a free local-port buffer (one a
			// regular packet may occupy).
			if id, port, slot, ok := findVC(start, func(vc *network.VC, port geom.Direction, slot int) bool {
				return port == geom.Local && vc.Empty(ref.Now) && !(esc && slot%network.VCsPerVnet == network.EscapeVC)
			}); ok {
				alive := ref.Topo.AliveRouters()
				dst := alive[hrng.Intn(len(alive))]
				for _, u := range units {
					if rt, ok := u.mgr.Route(id, dst); ok && dst != id {
						u.sim.PlacePacket(id, port, slot, u.sim.NewPacket(id, dst, slot/network.VCsPerVnet, 5, rt))
						placed++
					}
				}
			}
			// Destroy one buffered packet, side-deliver another.
			occupied := func(vc *network.VC, _ geom.Direction, _ int) bool { return vc.Pkt != nil }
			if id, port, slot, ok := findVC(start, occupied); ok {
				for _, u := range units {
					u.sim.RemovePacket(id, int(port)*network.SlotsPerPort+slot)
				}
				removed++
			}
			if id, port, slot, ok := findVC(start, occupied); ok {
				for _, u := range units {
					u.sim.DeliverOutOfBand(id, int(port)*network.SlotsPerPort+slot, u.sim.Now)
				}
				sideDelivered++
			}
		}
		if cyc < window {
			alive := ref.Topo.AliveRouters()
			for _, src := range alive {
				if hrng.Float64() >= rate {
					continue
				}
				dst := alive[hrng.Intn(len(alive))]
				if dst == src {
					continue
				}
				vnet, ln := hrng.Intn(network.NumVnets), 1+4*hrng.Intn(2)
				for _, u := range units {
					if rt, ok := u.mgr.Route(src, dst); ok {
						u.sim.Enqueue(u.sim.NewPacket(src, dst, vnet, ln, rt))
					} else {
						u.sim.Drop()
					}
				}
			}
		}

		for _, u := range units {
			u.step()
		}
		if drift != nil {
			t.Fatal(drift)
		}
		for _, u := range units[1:] {
			if u.sim.Stats != ref.Stats {
				t.Fatalf("cycle %d: stats diverged\nrefmodel: %+v\n%s: %+v", cyc, ref.Stats, u.name, u.sim.Stats)
			}
		}
		if cyc%checkEvery == checkEvery-1 {
			for _, u := range units {
				if err := checkUnit(cyc, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The run must have exercised what it claims to cover.
	st := ref.Stats
	if placed == 0 || removed == 0 || sideDelivered == 0 {
		t.Errorf("out-of-cycle pokes did not all happen: placed %d removed %d side-delivered %d", placed, removed, sideDelivered)
	}
	if units[1].mgr.Rerouted == 0 {
		t.Error("the link failure rerouted no packet")
	}
	if spin && st.SpinRotations == 0 {
		t.Error("SPIN variant performed no rotation")
	}
	if esc && st.EscapeTransfers == 0 {
		t.Error("escape variant promoted no packet")
	}
	if scheme == "sb" && (st.DeadlockRecoveries == 0 || st.BubbleOccupancies == 0) {
		t.Errorf("SB variant saw no recovery: recoveries %d, bubble occupancies %d", st.DeadlockRecoveries, st.BubbleOccupancies)
	}
}

// findBuffer returns the first buffer of s, scanning alive routers in
// ascending id from router `from` on (wrapping), then ports, then slots,
// that satisfies pred. The differential tests locate a buffer on their
// reference unit and apply the coordinates to every unit.
func findBuffer(s *network.Sim, from int, pred func(vc *network.VC, port geom.Direction, slot int) bool) (geom.NodeID, geom.Direction, int, bool) {
	n := len(s.Routers)
	for k := 0; k < n; k++ {
		id := (from + k) % n
		if !s.Topo.RouterAlive(geom.NodeID(id)) {
			continue
		}
		for _, port := range geom.AllPorts {
			for slot := 0; slot < network.SlotsPerPort; slot++ {
				if pred(s.Routers[id].Buf(int(port)*network.SlotsPerPort+slot), port, slot) {
					return geom.NodeID(id), port, slot, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

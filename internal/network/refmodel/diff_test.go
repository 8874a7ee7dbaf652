package refmodel

// The differential harness: every scenario builds a fleet of
// identically seeded simulations — topology, fault set, traffic
// schedule, recovery controller, runtime reconfiguration — and drives
// one through Sim.Step and one through this package's full-scan
// Stepper, comparing the complete Stats struct, occupancy, and progress
// marker after EVERY cycle, plus per-packet delivery times at the end,
// and running validate.Check on both every checkEvery cycles. Both cores
// share the per-node movement primitives, so any divergence isolates a
// visit-set or fused-allocation bug in Step.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/perturb"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

// checkEvery is how often (in cycles) the differential runs call
// validate.Check on every unit: a drifted counter, mirror word or
// active-summary bit is reported within checkEvery cycles of the cycle
// that caused it instead of whenever it finally perturbs Stats.
const checkEvery = 64

// checkUnit runs the full invariant set over one unit.
func checkUnit(cyc int, u *unit) error {
	if vs := validate.Check(u.sim, u.ctl); len(vs) > 0 {
		return fmt.Errorf("cycle %d: %s: %d invariant violations, first: %v", cyc, u.name, len(vs), vs[0])
	}
	return nil
}

// unit is one core under differential comparison.
type unit struct {
	name      string
	sim       *network.Sim
	step      func()
	mgr       *reconfig.Manager
	ctl       *core.Controller
	delivered map[int64]int64
}

// runScenario derives a full scenario from seed (topology shape and
// faults, config, traffic, SB controller, mid-run kills or power-gating),
// runs it under every core, and returns an error describing the first
// divergence or conservation violation. checkEqual additionally demands
// cycle-exact equality between the cores (the conservation invariant is
// always checked, on both).
func runScenario(seed int64, cycles int, checkEqual bool) error {
	return runScenarioKnobs(seed, cycles, checkEqual, perturb.Knobs{}, false)
}

// runScenarioKnobs is runScenario with a perturbed control plane: every
// unit gets its own identically seeded Perturber applying knobs to all
// SB controller messages, so perturbation decisions are part of the
// shared trajectory and the cores must stay cycle-exact through lost,
// delayed, reordered, and duplicated control messages. forceSpin pins
// SPIN recovery mode on (instead of the seed-derived draw), for
// perturbed SPIN-storm scenarios.
func runScenarioKnobs(seed int64, cycles int, checkEqual bool, knobs perturb.Knobs, forceSpin bool) error {
	hrng := rand.New(rand.NewSource(seed))
	w := 4 + hrng.Intn(5)
	h := 4 + hrng.Intn(5)
	kind := topology.LinkFaults
	if hrng.Intn(4) == 0 {
		kind = topology.RouterFaults
	}
	faults := hrng.Intn(1 + w*h/4)
	topoSeed := hrng.Int63()

	if hrng.Intn(4) == 0 {
		// These draws once picked non-default pipeline latencies; the
		// router's are fixed now, and the draws stay so that every seed
		// keeps the rest of its scenario.
		hrng.Intn(2)
		hrng.Intn(3)
	}
	simSeed := hrng.Int63()

	// SB recovery on most scenarios (deadlock storms are the hard case
	// for the visit set); occasionally SPIN mode or
	// no recovery at all (wedged deadlocks must wedge identically).
	attachSB := hrng.Intn(5) != 0
	opt := core.Options{TDD: int64(16 + hrng.Intn(32))}
	opt.Spin = hrng.Intn(4) == 0
	var perturbSeed int64
	if !knobs.IsZero() {
		// Perturbing the control plane requires one: force the controller
		// on, and derive the per-unit perturber seed from the scenario so
		// every core sees the same drop/delay/reorder/duplicate decisions.
		attachSB = true
		perturbSeed = hrng.Int63()
	}
	if forceSpin {
		opt.Spin = true
	}

	units := []*unit{{name: "event"}, {name: "refmodel"}}
	for _, u := range units {
		topo := topology.RandomIrregular(w, h, kind, faults, topoSeed)
		u.sim = network.New(topo, network.Config{}, rand.New(rand.NewSource(simSeed)))
		u.step = u.sim.Step
		if u.name == "refmodel" {
			u.step = New(u.sim).Step
			// The reference unit runs unpooled: a pooling bug in the
			// event core (use-after-release, aliased route span) then
			// perturbs its trajectory but not the reference's, and
			// the divergence is caught cycle-for-cycle below.
			u.sim.SetPooling(false)
		}
		if attachSB {
			uopt := opt
			if !knobs.IsZero() {
				// A fresh, identically seeded perturber per unit: the
				// stream is stateful, so sharing one instance would let the
				// first-stepped core consume the other units' draws.
				uopt.Perturb = perturb.New(perturb.Config{Default: knobs, Seed: perturbSeed})
			}
			u.ctl = core.Attach(u.sim, uopt)
		}
		u.delivered = make(map[int64]int64)
		d := u.delivered
		u.sim.OnDeliver = func(p *network.Packet) { d[p.ID] = p.DeliveredAt }
	}
	ev := units[0]

	// Mid-run topology changes go through reconfig managers (mirrored
	// call for call); static scenarios route over a shared table.
	kills := hrng.Intn(10) < 3
	gating := !kills && hrng.Intn(10) < 2
	var min *routing.Minimal
	if kills || gating {
		for _, u := range units {
			u.mgr = reconfig.New(u.sim)
		}
	} else {
		min = routing.NewMinimal(ev.sim.Topo)
	}
	// route returns one route per unit (managers may rebuild tables
	// differently per instance only if the cores diverged — flagged).
	routeBuf := make([]routing.Route, len(units))
	route := func(src, dst geom.NodeID) ([]routing.Route, bool, error) {
		if ev.mgr != nil {
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
		r, ok := min.Route(src, dst, hrng)
		for i := range routeBuf {
			routeBuf[i] = r
		}
		return routeBuf, ok, nil
	}

	window := cycles * 2 / 3
	rate := 0.02 + 0.10*hrng.Float64()

	type killEvent struct {
		cyc    int
		router bool
	}
	var killPlan []killEvent
	if kills {
		for i := 0; i < 1+hrng.Intn(2); i++ {
			killPlan = append(killPlan, killEvent{cyc: 50 + hrng.Intn(window), router: hrng.Intn(2) == 0})
		}
	}
	gateAt, ungateAt := -1, -1
	var gateTarget geom.NodeID
	if gating {
		gateAt = 50 + hrng.Intn(window/2)
		ungateAt = gateAt + 100 + hrng.Intn(window/2)
	}

	for cyc := 0; cyc < cycles; cyc++ {
		for _, evt := range killPlan {
			if evt.cyc != cyc {
				continue
			}
			if evt.router {
				alive := ev.sim.Topo.AliveRouters()
				if len(alive) == 0 {
					continue
				}
				n := alive[hrng.Intn(len(alive))]
				for _, u := range units {
					u.mgr.FailRouter(n)
				}
			} else {
				links := ev.sim.Topo.AliveUndirectedLinks()
				if len(links) == 0 {
					continue
				}
				l := links[hrng.Intn(len(links))]
				for _, u := range units {
					u.mgr.FailLink(l.From, l.Dir)
				}
			}
		}
		if cyc == gateAt {
			alive := ev.sim.Topo.AliveRouters()
			gateTarget = alive[hrng.Intn(len(alive))]
			e0 := ev.mgr.RequestGate(gateTarget)
			for _, u := range units[1:] {
				if eu := u.mgr.RequestGate(gateTarget); (eu == nil) != (e0 == nil) {
					return fmt.Errorf("cycle %d: RequestGate(%v) mismatch: %s %v vs %s %v",
						cyc, gateTarget, ev.name, e0, u.name, eu)
				}
			}
		}
		if gating && cyc > gateAt && cyc < ungateAt {
			g0 := ev.mgr.TryCompleteGates()
			for _, u := range units[1:] {
				if gu := u.mgr.TryCompleteGates(); len(gu) != len(g0) {
					return fmt.Errorf("cycle %d: gate completion mismatch: %s %v vs %s %v",
						cyc, ev.name, g0, u.name, gu)
				}
			}
		}
		if cyc == ungateAt {
			for _, u := range units {
				u.mgr.Ungate(gateTarget)
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
				return fmt.Errorf("cycle %d: %s core conservation violated: Delivered+InFlight+Queued+Lost=%d, Offered=%d",
					cyc, u.name, got, s.Stats.Offered)
			}
			if cyc%checkEvery == checkEvery-1 {
				if err := checkUnit(cyc, u); err != nil {
					return err
				}
			}
		}
		if !checkEqual {
			continue
		}
		for _, u := range units[1:] {
			if u.sim.Stats != ev.sim.Stats {
				return fmt.Errorf("cycle %d: stats diverged\n%-9s %+v\n%-9s %+v",
					cyc, ev.name+":", ev.sim.Stats, u.name+":", u.sim.Stats)
			}
			if u.sim.InFlight() != ev.sim.InFlight() || u.sim.QueuedPackets() != ev.sim.QueuedPackets() {
				return fmt.Errorf("cycle %d: occupancy diverged (%s): inflight %d vs %d, queued %d vs %d",
					cyc, u.name, ev.sim.InFlight(), u.sim.InFlight(), ev.sim.QueuedPackets(), u.sim.QueuedPackets())
			}
			if u.sim.LastProgress != ev.sim.LastProgress {
				return fmt.Errorf("cycle %d: LastProgress diverged (%s): %d vs %d",
					cyc, u.name, ev.sim.LastProgress, u.sim.LastProgress)
			}
		}
	}

	if checkEqual {
		for _, u := range units[1:] {
			if len(u.delivered) != len(ev.delivered) {
				return fmt.Errorf("delivery count diverged (%s): %d vs %d", u.name, len(ev.delivered), len(u.delivered))
			}
			for id, at := range ev.delivered {
				if ut, ok := u.delivered[id]; !ok || ut != at {
					return fmt.Errorf("packet %d delivery time diverged: event %d, %s %d (present %v)",
						id, at, u.name, ut, ok)
				}
			}
		}
	}
	return nil
}

// TestDifferentialEventVsRefModel proves Sim.Step cycle-exact against
// the full-scan reference across 60 seeded irregular-topology scenarios
// (20 under -short): mixed traffic, deadlock storms with SB (and SPIN)
// recovery, non-default pipeline latencies, mid-run link/router kills
// with in-place reroutes, and power-gating drains — comparing full
// Stats, occupancy and progress after every cycle and per-packet
// delivery times at the end.
func TestDifferentialEventVsRefModel(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 20
	}
	for i := 0; i < seeds; i++ {
		i := i
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			t.Parallel()
			if err := runScenario(int64(i)+1, 900+100*(i%6), true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialPerturbedControl extends the differential harness with
// perturbed-control scenarios: SB (and SPIN) recovery storms whose
// controller messages are randomly lost, delayed, reordered, and
// duplicated. The perturber draws from its own seeded stream inside the
// controller's fixed call order, so the decisions are part of the shared
// trajectory and both cores must remain cycle-exact through them. This pins
// down both the determinism contract of internal/perturb and the
// pooled-message discipline under duplication in every core.
func TestDifferentialPerturbedControl(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		cycles int
		knobs  perturb.Knobs
		spin   bool
	}{
		{"lossy_probes", 101, 900, perturb.Knobs{Loss: 0.25}, false},
		{"jittered_delivery", 102, 900, perturb.Knobs{Jitter: 0.5}, false},
		{"reordered_control", 103, 900, perturb.Knobs{Reorder: 0.4}, false},
		{"duplicated_control", 104, 900, perturb.Knobs{Dup: 0.35}, false},
		{"hostile_mix", 105, 1100, perturb.Knobs{Loss: 0.2, Jitter: 0.3, Reorder: 0.2, Dup: 0.2}, false},
		{"spin_storm_lossy", 106, 1100, perturb.Knobs{Loss: 0.2, Jitter: 0.3}, true},
		{"spin_storm_dup_reorder", 107, 1100, perturb.Knobs{Reorder: 0.3, Dup: 0.3}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if err := runScenarioKnobs(tc.seed, tc.cycles, true, tc.knobs, tc.spin); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropPacketConservationBothCores is the packet-conservation
// property test: for arbitrary seeded scenarios — random irregular
// topologies, fault schedules, recovery controllers —
//
//	Offered == Delivered + InFlight + QueuedPackets + Lost
//
// holds after every cycle under all cores (packets that never enter the
// system are counted by DroppedUnreachable separately, per the Stats
// contract). runScenario checks the invariant each cycle; this test
// feeds it quick-generated seeds.
func TestPropPacketConservationBothCores(t *testing.T) {
	f := func(seed int64) bool {
		err := runScenario(seed, 600, false)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

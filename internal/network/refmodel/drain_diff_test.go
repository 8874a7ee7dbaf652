package refmodel

// Drain differentials: scenarios in which the network goes idle while
// the SB controller still has work to do. Traffic arrives in dense
// bursts that wedge the network into deadlock, then stops entirely
// while the controller's timer-driven recovery — SB probe returns, DD
// deadlines, disable/enable timers, SPIN storm rotations — plays out
// over an otherwise idle fabric; and an idle SB mesh under trickle
// traffic takes out-of-band events (an enqueue after a long gap, a
// placed and removed packet, a link failure and recovery, a dead router
// with queued traffic). Cycle-exact Stats equality with the full-scan
// refmodel (which includes every controller counter: probes, disables,
// recoveries, spin rotations) proves Step acts on exactly the cycles
// the sequential semantics demand.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// runBurstyScenario drives a bursty feast-and-famine workload through
// the refmodel and the event core, demanding cycle-exact equality
// throughout, and returns the event core's Stats for vacuity checks.
// Traffic comes in short saturating bursts separated by long silences
// and ends with a drain tail several times longer than the controller's
// detection timeout.
func runBurstyScenario(t *testing.T, seed int64, cycles int, spin bool) network.Stats {
	t.Helper()
	hrng := rand.New(rand.NewSource(seed))
	w := 5 + hrng.Intn(4)
	h := 5 + hrng.Intn(4)
	faults := hrng.Intn(1 + w*h/3)
	topoSeed := hrng.Int63()
	simSeed := hrng.Int63()
	opt := core.Options{TDD: int64(16 + hrng.Intn(32)), Spin: spin}

	units := []*unit{{name: "event"}, {name: "refmodel"}}
	for _, u := range units {
		topo := topology.RandomIrregular(w, h, topology.LinkFaults, faults, topoSeed)
		u.sim = network.New(topo, network.Config{}, rand.New(rand.NewSource(simSeed)))
		u.step = u.sim.Step
		if u.name == "refmodel" {
			u.step = New(u.sim).Step
			u.sim.SetPooling(false)
		}
		u.ctl = core.Attach(u.sim, opt)
		u.delivered = make(map[int64]int64)
		d := u.delivered
		u.sim.OnDeliver = func(p *network.Packet) { d[p.ID] = p.DeliveredAt }
	}
	ev := units[0]
	min := routing.NewMinimal(ev.sim.Topo)

	// Bursts cover the first 2/3 of the run; the last third is a pure
	// drain where only controller timers (and any SPIN storm they start)
	// can wake the network.
	period := 140 + hrng.Intn(60)
	burst := 15 + hrng.Intn(15)
	window := cycles * 2 / 3
	alive := ev.sim.Topo.AliveRouters()

	for cyc := 0; cyc < cycles; cyc++ {
		if cyc < window && cyc%period < burst {
			for _, src := range alive {
				if hrng.Float64() >= 0.55 {
					continue
				}
				dst := alive[hrng.Intn(len(alive))]
				if dst == src {
					continue
				}
				r, ok := min.Route(src, dst, hrng)
				if !ok {
					for _, u := range units {
						u.sim.Drop()
					}
					continue
				}
				ln := 5
				if hrng.Intn(3) == 0 {
					ln = 1
				}
				vnet := hrng.Intn(network.NumVnets)
				for _, u := range units {
					u.sim.Enqueue(u.sim.NewPacket(src, dst, vnet, ln, r))
				}
			}
		}
		for _, u := range units {
			u.step()
			if cyc%checkEvery == checkEvery-1 {
				if err := checkUnit(cyc, u); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		for _, u := range units[1:] {
			if u.sim.Stats != ev.sim.Stats {
				t.Fatalf("seed %d cycle %d: stats diverged\n%-9s %+v\n%-9s %+v",
					seed, cyc, ev.name+":", ev.sim.Stats, u.name+":", u.sim.Stats)
			}
			if u.sim.InFlight() != ev.sim.InFlight() || u.sim.QueuedPackets() != ev.sim.QueuedPackets() {
				t.Fatalf("seed %d cycle %d: occupancy diverged (%s)", seed, cyc, u.name)
			}
			if u.sim.LastProgress != ev.sim.LastProgress {
				t.Fatalf("seed %d cycle %d: LastProgress diverged (%s): %d vs %d",
					seed, cyc, u.name, ev.sim.LastProgress, u.sim.LastProgress)
			}
		}
	}
	for _, u := range units[1:] {
		if len(u.delivered) != len(ev.delivered) {
			t.Fatalf("seed %d: delivery count diverged (%s): %d vs %d",
				seed, u.name, len(ev.delivered), len(u.delivered))
		}
		for id, at := range ev.delivered {
			if ut, ok := u.delivered[id]; !ok || ut != at {
				t.Fatalf("seed %d: packet %d delivery time diverged: event %d, %s %d (present %v)",
					seed, id, at, u.name, ut, ok)
			}
		}
	}
	return ev.sim.Stats
}

// TestDifferentialQuietBatching: bursty deadlock-prone scenarios with
// the SB controller attached, compared cycle-exact across the refmodel
// and event cores. The bursts are separated by quiet stretches in which
// no traffic arrives; probe and disable timers must fire at their exact
// cycles inside those stretches and in the idle drain tail, and the run
// as a whole must actually exercise the SB timer machinery.
func TestDifferentialQuietBatching(t *testing.T) {
	// Seed 214 pairs a deadlock disable with long quiet stretches in a
	// single run; the others contribute heavy probing or extra disables
	// so the corpus-level machinery checks below can't go vacuous if one
	// scenario's trajectory shifts.
	seeds := []int64{200, 204, 206, 214, 215}
	if testing.Short() {
		seeds = []int64{200, 214}
	}
	var probes, disables int64
	for _, seed := range seeds {
		st := runBurstyScenario(t, seed, 1200, false)
		probes += st.ProbesSent
		disables += st.DisablesSent
	}
	if probes == 0 {
		t.Fatal("no SB probes across the corpus — the timer machinery never ran")
	}
	if disables == 0 {
		t.Fatal("no SB disables across the corpus — no deadlock recovery was exercised")
	}
}

// TestDifferentialQuietSpinStorm is the SPIN variant: storms started by
// a DD expiry in a quiet stretch must rotate on exactly the cycles the
// sequential semantics dictate.
func TestDifferentialQuietSpinStorm(t *testing.T) {
	// 301 contributes long quiet stretches, 323/328 real storms, 329
	// probe traffic threaded through quiet stretches.
	seeds := []int64{301, 323, 328, 329}
	if testing.Short() {
		seeds = []int64{301, 323}
	}
	var spins int64
	for _, seed := range seeds {
		st := runBurstyScenario(t, seed, 1200, true)
		spins += st.SpinRotations
	}
	if spins == 0 {
		t.Fatal("no SPIN rotations across the corpus — no storm ever fired")
	}
}

// TestDifferentialIdleSB compares Sim.Step with the refmodel on an idle
// SB-attached 16×16 with on/off trickle traffic, Stats equal after
// every cycle. Out-of-band events land while the network is empty: an
// Enqueue (injected the same cycle), a placed and removed packet, a
// reconfiguration link failure and recovery, and a router disabled with
// traffic queued at its NI, which must not inject until it is
// re-enabled and must inject the cycle it is.
func TestDifferentialIdleSB(t *testing.T) {
	type side struct {
		sim  *network.Sim
		mgr  *reconfig.Manager
		step func()
	}
	mk := func(ref bool) *side {
		topo := topology.NewMesh(16, 16)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
		sd := &side{sim: s, step: s.Step}
		if ref {
			sd.step = New(s).Step
			s.SetPooling(false)
		}
		ctl := core.Attach(s, core.Options{})
		sd.mgr = reconfig.New(s)
		sd.mgr.SetScheme(ctl)
		return sd
	}
	ev, ref := mk(false), mk(true)
	both := []*side{ev, ref}
	step := func(tag string) {
		t.Helper()
		for _, sd := range both {
			sd.mgr.Tick()
			sd.step()
		}
		if ev.sim.Stats != ref.sim.Stats || ev.sim.InFlight() != ref.sim.InFlight() ||
			ev.sim.QueuedPackets() != ref.sim.QueuedPackets() || ev.sim.LastProgress != ref.sim.LastProgress {
			t.Fatalf("%s, cycle %d: diverged\nstep:     %+v\nrefmodel: %+v", tag, ev.sim.Now, ev.sim.Stats, ref.sim.Stats)
		}
	}
	enqueue := func(src, dst geom.NodeID) *network.Packet {
		var p *network.Packet
		for _, sd := range both {
			r, ok := sd.mgr.Route(src, dst)
			if !ok {
				t.Fatalf("no route %v->%v", src, dst)
			}
			q := sd.sim.NewPacket(src, dst, 0, 5, r)
			sd.sim.Enqueue(q)
			if sd == ev {
				p = q
			}
		}
		return p
	}
	// idle steps until the network is empty, then 50 cycles more.
	idle := func(tag string) {
		t.Helper()
		for i := 0; ev.sim.InFlight()+ev.sim.QueuedPackets() > 0; i++ {
			if i == 2000 {
				t.Fatalf("%s: network never drained", tag)
			}
			step(tag)
		}
		for i := 0; i < 50; i++ {
			step(tag)
		}
	}

	// On/off trickle: 300 cycles at 0.002 packets/node/cycle, 300 silent.
	rng := rand.New(rand.NewSource(6))
	for cyc := 0; cyc < 2400; cyc++ {
		if cyc%600 < 300 {
			for n := 0; n < 256; n++ {
				if rng.Float64() < 0.002 {
					if dst := geom.NodeID(rng.Intn(256)); dst != geom.NodeID(n) {
						enqueue(geom.NodeID(n), dst)
					}
				}
			}
		}
		step("trickle")
	}
	if ev.sim.Stats.Delivered == 0 {
		t.Fatal("trickle delivered nothing")
	}

	idle("enqueue")
	p := enqueue(17, 200)
	at := ev.sim.Now
	step("Enqueue")
	if p.InjectedAt != at {
		t.Fatalf("packet enqueued into an idle network injected at %d, want %d", p.InjectedAt, at)
	}

	idle("remove")
	for _, sd := range both {
		sd.sim.PlacePacket(40, geom.West, 0, sd.sim.NewPacket(39, 41, 0, 1, routing.Route{geom.East, geom.East}))
		sd.sim.RemovePacket(&sd.sim.Routers[40].In[geom.West][0], 40, geom.West)
	}
	step("PlacePacket+RemovePacket")

	idle("reconfig")
	for _, sd := range both {
		sd.mgr.FailLink(100, geom.East)
	}
	step("fail link")
	idle("reconfig recover")
	for _, sd := range both {
		sd.mgr.Submit(reconfig.Event{Kind: reconfig.EvRecoverLink, Node: 100, Dir: geom.East})
	}
	step("link recovery")

	// A dead router with queued traffic polls until it is re-enabled;
	// the stepper reads router liveness every cycle, so re-enabling it
	// needs no notice.
	idle("dead router")
	for _, sd := range both {
		sd.sim.Topo.DisableRouter(77)
	}
	p = enqueue(77, 80)
	for i := 0; i < 200; i++ {
		step("dead router queued")
	}
	if p.InjectedAt >= 0 {
		t.Fatal("dead router injected")
	}
	for _, sd := range both {
		sd.sim.Topo.EnableRouter(77)
	}
	at = ev.sim.Now
	step("re-enable")
	if p.InjectedAt != at {
		t.Fatalf("re-enabled router injected at %d, want %d", p.InjectedAt, at)
	}
	for i := 0; i < 100; i++ {
		step("drain")
	}
	if p.DeliveredAt < 0 {
		t.Fatal("packet queued at the dead router was never delivered")
	}
}

package refmodel

// Quiet-epoch batching differential: Step (sequential or sharded) may
// fast-forward through cycles in which no router state can change, but
// only when every attached hook has registered a quiescence horizon and
// that horizon is honored. These scenarios are built so the interesting
// transitions — SB probe returns, DD deadlines, disable/enable timers,
// SPIN storm rotations — land *inside* would-be quiet windows: traffic
// arrives in dense bursts that wedge the network into deadlock, then
// stops entirely while the controller's timer-driven recovery plays out
// over an otherwise idle fabric. The full-scan refmodel never skips a
// cycle, so cycle-exact Stats equality (which includes every controller
// counter: probes, disables, recoveries, spin rotations) proves the
// batched cores wake for exactly the cycles the timers demand. Each
// test additionally asserts via StepperCounters that quiet batching
// actually engaged, so the proof is not vacuous.

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

// runQuietScenario drives a bursty feast-and-famine workload through
// the refmodel, the event core, and sharded variants, demanding
// cycle-exact equality throughout, and returns the event core's stepper
// counters for vacuity checks. Traffic comes in short saturating bursts
// separated by long silences and ends with a drain tail several times
// longer than the controller's detection timeout.
func runQuietScenario(t *testing.T, seed int64, cycles int, spin bool, shardCounts []int) (network.StepperCounters, network.Stats) {
	t.Helper()
	hrng := rand.New(rand.NewSource(seed))
	w := 5 + hrng.Intn(4)
	h := 5 + hrng.Intn(4)
	faults := hrng.Intn(1 + w*h/3)
	topoSeed := hrng.Int63()
	simSeed := hrng.Int63()
	opt := core.Options{TDD: int64(16 + hrng.Intn(32)), Spin: spin}

	units := []*unit{{name: "event"}, {name: "refmodel"}}
	for _, n := range shardCounts {
		units = append(units, &unit{name: fmt.Sprintf("shards%d", n)})
	}
	for i, u := range units {
		var cfg network.Config
		if i >= 2 {
			cfg.Shards = shardCounts[i-2]
		}
		topo := topology.RandomIrregular(w, h, topology.LinkFaults, faults, topoSeed)
		u.sim = network.New(topo, cfg, rand.New(rand.NewSource(simSeed)))
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
				vnet := hrng.Intn(ev.sim.Cfg.NumVnets)
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
	return ev.sim.StepperCounters(), ev.sim.Stats
}

// TestDifferentialQuietBatching: bursty deadlock-prone scenarios with
// the SB controller attached, compared cycle-exact across refmodel,
// event and sharded (1/4) cores. Probe and disable timers must fire at
// their exact cycles even when the core was fast-forwarding, and the
// run as a whole must actually exercise both quiet batching and the SB
// timer machinery.
func TestDifferentialQuietBatching(t *testing.T) {
	// Seed 214 pairs a deadlock disable with quiet windows in a single
	// run; the others contribute heavy quiet, heavy probing, or extra
	// disables so the corpus-level machinery checks below can't go
	// vacuous if one scenario's trajectory shifts.
	seeds := []int64{200, 204, 206, 214, 215}
	if testing.Short() {
		seeds = []int64{200, 214}
	}
	var quiet, probes, disables int64
	for _, seed := range seeds {
		ctr, st := runQuietScenario(t, seed, 1200, false, []int{1, 4})
		quiet += ctr.QuietCycles
		probes += st.ProbesSent
		disables += st.DisablesSent
	}
	if quiet == 0 {
		t.Fatal("no quiet cycles across the corpus — batching never engaged")
	}
	if probes == 0 {
		t.Fatal("no SB probes across the corpus — the timer machinery never ran")
	}
	if disables == 0 {
		t.Fatal("no SB disables across the corpus — no deadlock recovery was exercised")
	}
}

// TestDifferentialQuietSpinStorm is the SPIN variant: storms started by
// a DD expiry mid-quiet-window must rotate on exactly the cycles the
// sequential semantics dictate. Sharded variants ride at 1, 4 and 8.
func TestDifferentialQuietSpinStorm(t *testing.T) {
	// 301 contributes long quiet stretches, 323/328 real storms, 329
	// probe traffic threaded through quiet windows.
	seeds := []int64{301, 323, 328, 329}
	if testing.Short() {
		seeds = []int64{301, 323}
	}
	var quiet, spins int64
	for _, seed := range seeds {
		ctr, st := runQuietScenario(t, seed, 1200, true, []int{1, 4, 8})
		quiet += ctr.QuietCycles
		spins += st.SpinRotations
	}
	if quiet == 0 {
		t.Fatal("no quiet cycles across the SPIN corpus — batching never engaged")
	}
	if spins == 0 {
		t.Fatal("no SPIN rotations across the corpus — no storm ever fired")
	}
}

// TestQuietParityIdleSB pins the quiet-epoch contract of Sim.Step
// against the refmodel on the regime fast-forward exists for: an idle
// SB-attached 16×16 with on/off trickle traffic. Stats must be
// identical after every cycle, windows must actually open, every
// out-of-band event landing inside a window (Enqueue, a placed and
// removed packet, a reconfiguration recover) must void it, and a dead
// router with a non-empty NI queue must hold the window closed — it
// stays in the active set until it is re-enabled.
func TestQuietParityIdleSB(t *testing.T) {
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
	quiet := func() int64 { return ev.sim.StepperCounters().QuietCycles }
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
	// intoWindow steps until Step skips a cycle, i.e. a window is open.
	intoWindow := func(tag string) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			q := quiet()
			step(tag)
			if quiet() > q {
				return
			}
		}
		t.Fatalf("%s: network never went quiet", tag)
	}
	// voided asserts the next cycle is swept, not skipped.
	voided := func(tag string) {
		t.Helper()
		q := quiet()
		step(tag)
		if quiet() != q {
			t.Fatalf("%s inside a quiet window did not void it", tag)
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
	if quiet() == 0 {
		t.Fatal("idle SB mesh never fast-forwarded")
	}
	if ev.sim.Stats.Delivered == 0 {
		t.Fatal("trickle delivered nothing")
	}

	intoWindow("enqueue")
	p := enqueue(17, 200)
	at := ev.sim.Now
	voided("Enqueue")
	if p.InjectedAt != at {
		t.Fatalf("packet enqueued inside a window injected at %d, want %d", p.InjectedAt, at)
	}

	intoWindow("remove")
	for _, sd := range both {
		sd.sim.PlacePacket(40, geom.West, 0, sd.sim.NewPacket(39, 41, 0, 1, routing.Route{geom.East, geom.East}))
		sd.sim.RemovePacket(&sd.sim.Routers[40].In[geom.West][0], 40, geom.West)
	}
	voided("PlacePacket+RemovePacket")

	intoWindow("reconfig")
	for _, sd := range both {
		sd.mgr.FailLink(100, geom.East)
	}
	step("fail link")
	intoWindow("reconfig recover")
	for _, sd := range both {
		sd.mgr.Submit(reconfig.Event{Kind: reconfig.EvRecoverLink, Node: 100, Dir: geom.East})
	}
	voided("link recovery")

	// A dead router with queued traffic polls: no window while it waits.
	intoWindow("dead router")
	for _, sd := range both {
		sd.sim.Topo.DisableRouter(77)
	}
	p = enqueue(77, 80)
	q := quiet()
	for i := 0; i < 200; i++ {
		step("dead router queued")
	}
	if quiet() != q {
		t.Fatalf("%d cycles fast-forwarded past a dead router's non-empty NI queue", quiet()-q)
	}
	if p.InjectedAt >= 0 {
		t.Fatal("dead router injected")
	}
	for _, sd := range both {
		sd.sim.Topo.EnableRouter(77)
		sd.sim.Wake(77)
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

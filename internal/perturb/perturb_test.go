package perturb

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// enqueueRing primes a 2x2 mesh with a guaranteed deadlock: every node
// streams perNode 5-flit packets two hops clockwise (the same fixture
// internal/core's recovery tests use).
func enqueueRing(s *network.Sim, perNode int) int {
	hops := map[geom.NodeID]geom.Direction{0: geom.North, 2: geom.East, 3: geom.South, 1: geom.West}
	total := 0
	for _, n := range []geom.NodeID{0, 2, 3, 1} {
		d1 := hops[n]
		mid := s.Topo.Neighbor(n, d1)
		d2 := hops[mid]
		dst := s.Topo.Neighbor(mid, d2)
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(n, dst, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	return total
}

// runStorm drives a seeded mixed-traffic storm on the golden scenario's
// irregular 8x8 topology (known to trigger thousands of probes) with SB
// recovery attached and returns the final Stats.
func runStorm(t *testing.T, p core.Perturber) (network.Stats, *core.Controller) {
	t.Helper()
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 18, 42)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
	c := core.Attach(s, core.Options{TDD: 24, Perturb: p})
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(5))
	for cyc := 0; cyc < 3000; cyc++ {
		if cyc < 2000 {
			for n := 0; n < topo.NumNodes(); n++ {
				src := geom.NodeID(n)
				if !topo.RouterAlive(src) || rng.Float64() >= 0.09 {
					continue
				}
				dst := geom.NodeID(rng.Intn(topo.NumNodes()))
				r, ok := min.Route(src, dst, rng)
				if !ok {
					s.Drop()
					continue
				}
				ln := 1
				if rng.Intn(2) == 0 {
					ln = 5
				}
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), ln, r))
			}
		}
		s.Step()
	}
	return s.Stats, c
}

// TestZeroKnobsIdenticalTrajectory: attaching a perturber with all-zero
// knobs must leave the trajectory byte-identical to no perturber at all —
// the layer only acts when a knob fires, never by existing.
func TestZeroKnobsIdenticalTrajectory(t *testing.T) {
	base, _ := runStorm(t, nil)
	zero, _ := runStorm(t, New(Config{Seed: 99}))
	if base != zero {
		t.Fatalf("zero-knob perturber changed the trajectory:\nbase %+v\nzero %+v", base, zero)
	}
}

// TestDeterministicUnderPerturbation: identical seeds and knobs produce
// identical trajectories and identical perturbation counters.
func TestDeterministicUnderPerturbation(t *testing.T) {
	cfg := Config{Default: Knobs{Loss: 0.3, Jitter: 0.4, Reorder: 0.2, Dup: 0.25}, Seed: 7}
	p1 := New(cfg)
	p2 := New(cfg)
	st1, _ := runStorm(t, p1)
	st2, _ := runStorm(t, p2)
	if st1 != st2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v", st1, st2)
	}
	if p1.Dropped != p2.Dropped || p1.Delayed != p2.Delayed ||
		p1.Reordered != p2.Reordered || p1.Duplicated != p2.Duplicated {
		t.Fatalf("perturbation counters diverged: %+v vs %+v", p1, p2)
	}
	if p1.Dropped == 0 || p1.Delayed == 0 || p1.Reordered == 0 || p1.Duplicated == 0 {
		t.Fatalf("expected every knob to fire during a storm: %+v", p1)
	}
}

// TestPerturbationChangesTrajectory: a firing knob must actually change
// the run (guards against the layer silently not being wired in).
func TestPerturbationChangesTrajectory(t *testing.T) {
	base, _ := runStorm(t, nil)
	lossy, _ := runStorm(t, New(Config{Default: Knobs{Loss: 0.5}, Seed: 7}))
	if base == lossy {
		t.Fatal("50% control-message loss left the trajectory unchanged")
	}
}

// TestRecoveryUnderLossyControlPlane: with every control-message class
// randomly dropped, delayed, reordered, and duplicated, the guaranteed
// ring deadlock must still be recovered and fully drained — the FSM
// timeouts and retransmissions are the mechanism under test.
func TestRecoveryUnderLossyControlPlane(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	p := New(Config{Default: Knobs{Loss: 0.25, Jitter: 0.5, Reorder: 0.3, Dup: 0.3}, Seed: 21})
	c := core.Attach(s, core.Options{TDD: 20, Perturb: p})
	total := enqueueRing(s, 12)
	s.Run(60000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d under lossy control plane (in flight %d, state %v)",
			s.Stats.Delivered, total, s.InFlight(), c.FSMState(3))
	}
	for id := range s.Routers {
		if s.Routers[id].Fence.Active {
			t.Fatalf("router %d fence still active after drain", id)
		}
	}
}

// TestControlPlaneOutageThenRecovery: while every probe is lost, no
// recovery can begin (the deadlock sits wedged); once the outage lifts
// the protocol completes normally. SetDefault is the knob path the fuzz
// target drives.
func TestControlPlaneOutageThenRecovery(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	p := New(Config{Default: Knobs{Loss: 1}, Only: []core.MsgType{core.MsgProbe}, Seed: 4})
	c := core.Attach(s, core.Options{TDD: 20, Perturb: p})
	total := enqueueRing(s, 12)
	s.Run(5000)
	if s.Stats.DeadlockRecoveries != 0 {
		t.Fatalf("recovery started despite total probe loss (%d recoveries)", s.Stats.DeadlockRecoveries)
	}
	if s.Stats.ProbesSent == 0 {
		t.Fatal("expected probe retransmissions during the outage")
	}
	if p.Dropped == 0 {
		t.Fatal("outage dropped nothing")
	}
	p.SetDefault(Knobs{})
	s.Run(40000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d after outage lifted (state %v)", s.Stats.Delivered, total, c.FSMState(3))
	}
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("expected a recovery once the outage lifted")
	}
}

// TestPerLinkOverride: a per-link override must shadow the default on
// that link only. With the default lossless and one link fully lossy,
// drops happen and are confined to the configured link.
func TestPerLinkOverride(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	// The 2x2 SB router is node 3; its probe for the clockwise ring exits
	// South toward node 1. Losing that directed link's control messages
	// stalls detection exactly like a total outage.
	p := New(Config{PerLink: map[Link]Knobs{{From: 3, Dir: geom.South}: {Loss: 1}}, Seed: 4})
	core.Attach(s, core.Options{TDD: 20, Perturb: p})
	enqueueRing(s, 12)
	s.Run(5000)
	if p.Dropped == 0 {
		t.Fatal("per-link loss never fired")
	}
	if s.Stats.DeadlockRecoveries != 0 {
		t.Fatalf("recovery started despite the probe link being dead (%d recoveries)", s.Stats.DeadlockRecoveries)
	}
	// Clearing the override restores the default (lossless) path.
	p.SetLink(Link{From: 3, Dir: geom.South}, Knobs{})
	s.Run(40000)
	if s.Stats.DeadlockRecoveries == 0 {
		t.Fatal("expected recovery after the override was removed")
	}
}

// TestOnlyFiltersClasses: a perturber restricted to probes must never
// touch disables/enables (the perturber's counters confirm via a dup-only
// config: duplicates appear only for the probe class).
func TestOnlyFiltersClasses(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	p := New(Config{Default: Knobs{Dup: 1}, Only: []core.MsgType{core.MsgDisable}, Seed: 8})
	core.Attach(s, core.Options{TDD: 20, Perturb: p})
	total := enqueueRing(s, 12)
	s.Run(40000)
	if s.Stats.Delivered != int64(total) {
		t.Fatalf("delivered %d of %d with duplicated disables", s.Stats.Delivered, total)
	}
	if p.Duplicated == 0 {
		t.Fatal("disable duplication never fired")
	}
	if p.Duplicated > s.Stats.DisablesSent*6 {
		// Disables are sent once per round and forwarded once per hop on a
		// ≤4-hop ring: duplicates far beyond that bound mean the Only
		// filter leaked onto probes (sent by the thousands in a storm).
		t.Fatalf("implausibly many duplicates (%d) for %d disables sent — Only filter leaking?",
			p.Duplicated, s.Stats.DisablesSent)
	}
}

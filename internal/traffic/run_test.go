package traffic_test

// The traffic sources driven through experiments.Run, the simulator's
// one run loop (an external test package: experiments imports traffic).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestParetoOnOffMeanRate: over a long run the empirical injection rate
// (flits offered per node per cycle) must be within tolerance of
// MeanRate(). Run open-loop into a large mesh at a low rate so
// backpressure never rejects offers.
func TestParetoOnOffMeanRate(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	alive := topo.AliveRouters()
	min := routing.NewMinimal(topo)
	po := traffic.NewParetoOnOff(alive, min, traffic.NewUniformRandom(alive), 0.12, rand.New(rand.NewSource(23)))

	const cycles = 60000
	experiments.Run(s, po, experiments.Phases{Measure: cycles})

	want := po.MeanRate()
	if want <= 0 || want >= po.PeakRate {
		t.Fatalf("implausible analytic mean rate %v (peak %v)", want, po.PeakRate)
	}
	// Injected flits / (nodes × cycles). Self-traffic redraws make the
	// offered rate slightly below nominal; 15% tolerance covers that plus
	// heavy-tailed variance at this run length.
	got := float64(s.Stats.InjectedFlits) / (float64(len(alive)) * cycles)
	if rel := math.Abs(got-want) / want; rel > 0.15 {
		t.Errorf("empirical rate %.4f vs analytic %.4f (rel err %.3f)", got, want, rel)
	}
}

// TestParetoOnOffDeterminism: identically seeded processes drive
// byte-identical trajectories.
func TestParetoOnOffDeterminism(t *testing.T) {
	run := func() network.Stats {
		topo := topology.RandomIrregular(6, 6, topology.LinkFaults, 8, 7)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
		alive := topo.AliveRouters()
		po := traffic.NewParetoOnOff(alive, routing.NewMinimal(topo), traffic.NewUniformRandom(alive), 0.2, rand.New(rand.NewSource(31)))
		experiments.Run(s, po, experiments.Phases{Measure: 5000})
		return s.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed Pareto runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Offered == 0 {
		t.Fatal("no packets injected")
	}
}

func TestInjectorOfferedRate(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(4))
	inj := traffic.NewInjector(topo.AliveRouters(), min, traffic.NewUniformRandom(topo.AliveRouters()), 0.09, rng)
	const cycles = 3000
	experiments.Run(s, inj, experiments.Phases{Measure: cycles})
	// Offered flits per node per cycle should approximate the target
	// (self-traffic skips depress it slightly: 1/64 of draws).
	var flits float64 = float64(s.Stats.Offered) * (inj.CtrlFraction + (1-inj.CtrlFraction)*network.VCDepth)
	rate := flits / float64(cycles) / 64
	if math.Abs(rate-0.09*63/64) > 0.01 {
		t.Fatalf("offered rate %.4f, want ~%.4f", rate, 0.09*63.0/64)
	}
}

func TestInjectorDropsUnreachable(t *testing.T) {
	topo := topology.NewMesh(4, 1)
	topo.DisableLink(1, geom.East)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(5)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(6))
	inj := traffic.NewInjector(topo.AliveRouters(), min, traffic.NewUniformRandom(topo.AliveRouters()), 0.5, rng)
	experiments.Run(s, inj, experiments.Phases{Measure: 2000})
	if s.Stats.DroppedUnreachable == 0 {
		t.Fatal("expected drops across the cut")
	}
	if s.Stats.Delivered == 0 {
		t.Fatal("expected deliveries within components")
	}
}

func TestInjectorPacketMix(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(8))
	inj := traffic.NewInjector(topo.AliveRouters(), min, traffic.NewUniformRandom(topo.AliveRouters()), 0.12, rng)
	experiments.Run(s, inj, experiments.Phases{Measure: 4000, Drain: 500})
	if s.Stats.Delivered != s.Stats.Offered {
		t.Fatalf("drain incomplete: %d of %d", s.Stats.Delivered, s.Stats.Offered)
	}
	// Flit link cycles / delivered ≈ meanLen × avg hops; just check both
	// classes flowed by looking at per-vnet evidence via total flit count
	// exceeding packet count (data packets are 5 flits).
	if s.Stats.LinkCycles[network.ClassFlit] <= s.Stats.Delivered {
		t.Fatal("expected multi-flit packets in the mix")
	}
}

func TestAppRunCompletesOnHealthyMesh(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(9)))
	core.Attach(s, core.Options{})
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(10))
	run := traffic.NewAppRun(s, min, traffic.Parsec()[0], rng)
	experiments.Run(s, run, experiments.Phases{Measure: 400000, Stop: run.Done})
	res := run.Result(s)
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if res.Throughput <= 0 || res.Runtime <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Delivered < int64(run.Profile.WorkPackets) {
		t.Fatalf("delivered %d < work %d", res.Delivered, run.Profile.WorkPackets)
	}
}

func TestAppRunDeterministic(t *testing.T) {
	run := func() traffic.Result {
		topo := topology.NewMesh(6, 6)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(11)))
		min := routing.NewMinimal(topo)
		rng := rand.New(rand.NewSource(12))
		run := traffic.NewAppRun(s, min, traffic.Rodinia()[2], rng)
		experiments.Run(s, run, experiments.Phases{Measure: 200000, Stop: run.Done})
		return run.Result(s)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("app runs differ: %+v vs %+v", a, b)
	}
}

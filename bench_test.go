// Package repro's root benchmarks regenerate each of the paper's tables
// and figures at reduced scale (one bench per experiment; see
// EXPERIMENTS.md and cmd/sbsweep for full-scale runs), plus micro
// benchmarks of the simulator core.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/validate"
)

// benchParams is the reduced sweep configuration used by the figure
// benchmarks.
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Topologies = 2
	p.WarmupCycles = 200
	p.MeasureCycles = 1200
	return p
}

func BenchmarkFig2DeadlockProne(b *testing.B) {
	p := benchParams()
	p.Topologies = 10
	steps := map[topology.FaultKind][]int{
		topology.LinkFaults:   {1, 20, 50, 90},
		topology.RouterFaults: {1, 10, 25, 40},
	}
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig2(p, steps)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig3DeadlockHeatmap(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig3(p, []int{5, 20}, []float64{0.10, 0.25})) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkPlacement(b *testing.B) {
	// Fig. 4: the placement rule plus full coverage verification on 8x8.
	topo := topology.NewMesh(8, 8)
	for i := 0; i < b.N; i++ {
		if len(core.Placement(8, 8)) != 21 || !core.VerifyCoverage(topo) {
			b.Fatal("placement broken")
		}
	}
}

func BenchmarkTable1BufferCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1(experiments.Quick(), nil)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig8LowLoadLatency(b *testing.B) {
	p := benchParams()
	steps := map[topology.FaultKind][]int{
		topology.LinkFaults:   {15},
		topology.RouterFaults: {8},
	}
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8(p, []string{"uniform_random"}, steps)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig9Throughput(b *testing.B) {
	p := benchParams()
	steps := map[topology.FaultKind][]int{topology.LinkFaults: {10}}
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig9(p, steps)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig10Energy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig10(p, []int{7})) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig11ThresholdSweep(b *testing.B) {
	p := benchParams()
	p.MeasureCycles = 3000
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig11(p, []int64{10, 60})) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig12Rodinia(b *testing.B) {
	p := benchParams()
	apps := []traffic.AppProfile{traffic.Rodinia()[4]} // BFS (lightest)
	steps := map[topology.FaultKind][]int{topology.LinkFaults: {4}}
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig12(p, apps, steps)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig13Parsec(b *testing.B) {
	p := benchParams()
	apps := []traffic.AppProfile{traffic.Parsec()[3]} // swaptions (lightest)
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig13(p, apps)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- simulator micro-benchmarks -------------------------------------------

// BenchmarkSimCycle measures raw simulation speed: cycles/second on a
// loaded 8x8 mesh with SB attached.
func BenchmarkSimCycle(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(sim, core.Options{})
	min := routing.NewMinimal(topo)
	inj := traffic.NewInjector(topo.AliveRouters(), min,
		traffic.NewUniformRandom(topo.AliveRouters()), 0.10, rand.New(rand.NewSource(2)))
	sim.Run(500) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Tick(sim)
		sim.Step()
	}
}

// BenchmarkRecoveryRing measures one full detect-and-recover episode on a
// guaranteed 2x2 ring deadlock.
func BenchmarkRecoveryRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := topology.NewMesh(2, 2)
		sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
		core.Attach(sim, core.Options{TDD: 20})
		hops := map[geom.NodeID]geom.Direction{0: geom.North, 2: geom.East, 3: geom.South, 1: geom.West}
		for _, n := range []geom.NodeID{0, 2, 3, 1} {
			d1 := hops[n]
			mid := topo.Neighbor(n, d1)
			d2 := hops[mid]
			dst := topo.Neighbor(mid, d2)
			for k := 0; k < 12; k++ {
				sim.Enqueue(sim.NewPacket(n, dst, 0, 5, routing.Route{d1, d2}))
			}
		}
		for sim.InFlight()+sim.QueuedPackets() > 0 && sim.Now < 40000 {
			sim.Step()
		}
		if sim.Stats.DeadlockRecoveries == 0 {
			b.Fatal("no recovery happened")
		}
	}
}

func BenchmarkMinimalRoute(b *testing.B) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 20, 1)
	min := routing.NewMinimal(topo) // tables compile here, outside the timer
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := geom.NodeID(i % 64)
		dst := geom.NodeID((i * 31) % 64)
		min.Route(src, dst, rng)
	}
}

func BenchmarkUpDownConstruction(b *testing.B) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 20, 1)
	for i := 0; i < b.N; i++ {
		routing.NewUpDown(topo)
	}
}

func BenchmarkCoverageCheck(b *testing.B) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 20, 1)
	for i := 0; i < b.N; i++ {
		if !core.VerifyCoverage(topo) {
			b.Fatal("coverage violated")
		}
	}
}

func BenchmarkPlacementClosedForm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.PlacementCountClosedForm(64, 64) != core.PlacementCount(64, 64) {
			b.Fatal("closed form mismatch")
		}
	}
}

// --- extension benchmarks ---------------------------------------------------

// BenchmarkScaleStudy runs the beyond-the-paper mesh-size saturation
// comparison at reduced scale.
func BenchmarkScaleStudy(b *testing.B) {
	p := benchParams()
	p.MeasureCycles = 800
	for i := 0; i < b.N; i++ {
		if len(experiments.Scale(p, [][2]int{{4, 4}, {6, 6}})) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblation runs the design-variant comparison.
func BenchmarkAblation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if len(experiments.Ablation(p)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkReconfigGate measures one graceful gate cycle on an idle mesh.
func BenchmarkReconfigGate(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	mgr := reconfig.New(sim)
	victim := topo.ID(geom.Coord{X: 3, Y: 3})
	for i := 0; i < b.N; i++ {
		if err := mgr.RequestGate(victim); err != nil {
			b.Fatal(err)
		}
		if gated := mgr.TryCompleteGates(); len(gated) != 1 {
			b.Fatal("gate did not complete on idle network")
		}
		mgr.Ungate(victim)
	}
}

// BenchmarkValidateCheck measures the invariant oracle on a loaded sim.
func BenchmarkValidateCheck(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(sim, core.Options{})
	min := routing.NewMinimal(topo)
	inj := traffic.NewInjector(topo.AliveRouters(), min,
		traffic.NewUniformRandom(topo.AliveRouters()), 0.10, rand.New(rand.NewSource(2)))
	for c := 0; c < 1000; c++ {
		inj.Tick(sim)
		sim.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := validate.Check(sim, ctrl); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

// BenchmarkSnapshotCapture measures diagnostic state capture.
func BenchmarkSnapshotCapture(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(sim, core.Options{})
	min := routing.NewMinimal(topo)
	inj := traffic.NewInjector(topo.AliveRouters(), min,
		traffic.NewUniformRandom(topo.AliveRouters()), 0.10, rand.New(rand.NewSource(2)))
	for c := 0; c < 1000; c++ {
		inj.Tick(sim)
		sim.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := snapshot.Capture(sim, ctrl)
		if st.Cycle == 0 {
			b.Fatal("bad snapshot")
		}
	}
}

// BenchmarkDeadlockAnalyze measures the exact drainability fixpoint.
func BenchmarkDeadlockAnalyze(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	sim := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	min := routing.NewMinimal(topo)
	inj := traffic.NewInjector(topo.AliveRouters(), min,
		traffic.NewUniformRandom(topo.AliveRouters()), 0.15, rand.New(rand.NewSource(2)))
	for c := 0; c < 1500; c++ {
		inj.Tick(sim)
		sim.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deadlock.Analyze(sim)
	}
}

// BenchmarkFailureTimeline runs the reconfiguration-downtime study at
// reduced scale.
func BenchmarkFailureTimeline(b *testing.B) {
	p := benchParams()
	p.MeasureCycles = 2500
	for i := 0; i < b.N; i++ {
		if len(experiments.FailureTimeline(p, 500, 2)) == 0 {
			b.Fatal("no rows")
		}
	}
}

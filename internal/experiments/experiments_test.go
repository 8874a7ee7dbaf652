package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestSchemeStrings(t *testing.T) {
	if SpanningTree.String() != "sp_tree" || EscapeVC.String() != "escape_vc" ||
		StaticBubble.String() != "static_bubble" || Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unexpected scheme strings")
	}
	if SpanningTree.EnergyKey() != "tree" || EscapeVC.EnergyKey() != "evc" ||
		StaticBubble.EnergyKey() != "sb" {
		t.Fatal("unexpected energy keys")
	}
}

func TestBuildSchemes(t *testing.T) {
	p := Quick()
	topo := topology.NewMesh(8, 8)
	tree := p.Build(topo.Clone(), SpanningTree, 1)
	if tree.UpDown == nil || tree.Alg.Name() != "spanning_tree" || tree.SB != nil {
		t.Fatal("spanning tree instance misconfigured")
	}
	evc := p.Build(topo.Clone(), EscapeVC, 1)
	if evc.UpDown == nil || !evc.Sim.EscapeClass() {
		t.Fatal("escape VC instance misconfigured")
	}
	sb := p.Build(topo.Clone(), StaticBubble, 1)
	if sb.SB == nil || len(sb.SB.BubbleRouters()) != 21 {
		t.Fatal("static bubble instance misconfigured")
	}
}

// TestBuildRngStream: the lazily seeded simulator rng draws the same
// streams as an eagerly seeded rand.New(rand.NewSource(seed)), before
// and after Seed, whether Seed comes before the first draw or after.
func TestBuildRngStream(t *testing.T) {
	p := Quick()
	topo := topology.NewMesh(4, 4)
	same := func(t *testing.T, got, want *rand.Rand) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("draw %d: Int63 %d, want %d", i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d: Uint64 %d, want %d", i, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("draw %d: Intn %d, want %d", i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("draw %d: Float64 %v, want %v", i, g, w)
			}
		}
	}
	for _, seed := range []int64{1, -7, 1 << 40} {
		got := p.Build(topo, StaticBubble, seed).Sim.Rng
		want := rand.New(rand.NewSource(seed))
		same(t, got, want)
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		same(t, got, want)

		got = p.Build(topo, SpanningTree, seed).Sim.Rng
		want = rand.New(rand.NewSource(seed))
		got.Seed(seed * 3)
		want.Seed(seed * 3)
		same(t, got, want)
	}
}

func TestSampleTopologyDeterministic(t *testing.T) {
	p := Quick()
	a := p.SampleTopology(topology.LinkFaults, 10, 3)
	b := p.SampleTopology(topology.LinkFaults, 10, 3)
	if a.AliveLinkCount() != b.AliveLinkCount() || a.String() != b.String() {
		t.Fatal("sampling not deterministic")
	}
	c := p.SampleTopology(topology.LinkFaults, 10, 4)
	if a.String() != c.String() {
		// strings only count totals; topologies may still differ — fine.
		_ = c
	}
}

func TestFig2Shape(t *testing.T) {
	p := Quick()
	p.Topologies = 12
	rows := Fig2(p, map[topology.FaultKind][]int{
		topology.LinkFaults:   {1, 5, 90},
		topology.RouterFaults: {1, 40},
	})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Fig2Row{}
	for _, r := range rows {
		byKey[r.Kind.String()+string(rune('0'+r.Faults/10))] = r
	}
	// Low fault counts: essentially all topologies deadlock-prone.
	for _, r := range rows {
		if r.Faults <= 5 && r.ProneFraction < 0.99 {
			t.Fatalf("at %d %v faults prone fraction %.2f, want ~1", r.Faults, r.Kind, r.ProneFraction)
		}
		// Very high link-fault counts: heavily fragmented, fewer cycles.
		if r.Kind == topology.LinkFaults && r.Faults >= 90 && r.ProneFraction > 0.5 {
			t.Fatalf("at %d link faults prone fraction %.2f, want low", r.Faults, r.ProneFraction)
		}
	}
	if renderText(t, fig2Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig3Shape(t *testing.T) {
	p := Quick()
	p.Topologies = 4
	p.MeasureCycles = 3000
	rows := Fig3(p, []int{5}, []float64{0.05, 0.15, 0.30})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	cum := rows[0].CumulativeDeadlocked
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("cumulative deadlock fraction must be monotone in rate")
		}
	}
	// At 0.30 flits/node/cycle with 5 link faults most topologies deadlock
	// (Fig 3 shows onset at 0.1–0.3).
	if cum[len(cum)-1] < 0.5 {
		t.Fatalf("cumulative at 0.30 = %.2f, expected most topologies deadlocked", cum[len(cum)-1])
	}
	if renderText(t, fig3Tables(rows)...) == "" {
		t.Fatal("empty print")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1(Quick(), nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SBBuffers != 21 || rows[0].EscapeBuffers != 320 {
		t.Fatalf("8x8 row = %+v", rows[0])
	}
	if rows[1].SBBuffers != 89 || rows[1].EscapeBuffers != 1280 {
		t.Fatalf("16x16 row = %+v", rows[1])
	}
	for _, r := range rows {
		if !r.ClosedFormAgrees || !r.CoverageVerified {
			t.Fatalf("verification failed: %+v", r)
		}
	}
	if renderText(t, table1Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig8LowLoadShape(t *testing.T) {
	p := Quick()
	p.Topologies = 5
	rows := Fig8(p, []string{"uniform_random"}, map[topology.FaultKind][]int{
		topology.LinkFaults:   {15},
		topology.RouterFaults: {8},
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sampled == 0 {
			t.Fatalf("no topologies sampled for %+v", r)
		}
		// Minimal-route schemes must not be slower than the tree at low
		// load (they equal it at worst); the paper reports ~20% savings.
		if r.AvgNorm[StaticBubble] > 1.02 {
			t.Fatalf("SB latency norm %.3f > 1 at %v=%d", r.AvgNorm[StaticBubble], r.Kind, r.Faults)
		}
		if r.AvgNorm[EscapeVC] > 1.02 {
			t.Fatalf("eVC latency norm %.3f > 1", r.AvgNorm[EscapeVC])
		}
		if r.AvgNorm[SpanningTree] != 1.0 {
			t.Fatalf("tree norm %.3f != 1", r.AvgNorm[SpanningTree])
		}
		// No deadlocks at low load: SB and eVC should be close.
		diff := r.AvgNorm[StaticBubble] - r.AvgNorm[EscapeVC]
		if diff > 0.1 || diff < -0.1 {
			t.Fatalf("SB and eVC diverge at low load: %.3f vs %.3f",
				r.AvgNorm[StaticBubble], r.AvgNorm[EscapeVC])
		}
	}
	if renderText(t, fig8Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig9ThroughputShape(t *testing.T) {
	p := Quick()
	p.Topologies = 4
	p.MeasureCycles = 4000
	rows := Fig9(p, map[topology.FaultKind][]int{
		topology.LinkFaults: {10},
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Norm[SpanningTree] != 1.0 {
		t.Fatalf("tree norm = %.3f", r.Norm[SpanningTree])
	}
	// The paper's headline: SB throughput well above the tree, and above
	// escape VC (which reserves a VC).
	if r.Norm[StaticBubble] <= 1.0 {
		t.Fatalf("SB throughput norm %.3f, want > 1 (tree)", r.Norm[StaticBubble])
	}
	if r.Norm[StaticBubble] <= r.Norm[EscapeVC]*0.95 {
		t.Fatalf("SB %.3f should be at or above eVC %.3f", r.Norm[StaticBubble], r.Norm[EscapeVC])
	}
	if renderText(t, fig9Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig10EnergyShape(t *testing.T) {
	p := Quick()
	p.Topologies = 3
	rows := Fig10(p, []int{7})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var tree, sb, evc Fig10Row
	for _, r := range rows {
		switch r.Scheme {
		case SpanningTree:
			tree = r
		case StaticBubble:
			sb = r
		case EscapeVC:
			evc = r
		}
	}
	if tree.Total != 1.0 {
		t.Fatalf("tree total = %.3f, want 1", tree.Total)
	}
	// Escape VC pays the Table-I buffer overhead in leakage.
	if evc.RouterLeakage <= sb.RouterLeakage {
		t.Fatalf("eVC leakage %.3f should exceed SB %.3f", evc.RouterLeakage, sb.RouterLeakage)
	}
	// Minimal routes reduce dynamic energy versus the tree.
	if sb.LinkDynamic > tree.LinkDynamic*1.02 {
		t.Fatalf("SB link dynamic %.3f should not exceed tree %.3f", sb.LinkDynamic, tree.LinkDynamic)
	}
	if renderText(t, fig10Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig11ThresholdShape(t *testing.T) {
	p := Quick()
	p.Topologies = 2
	p.MeasureCycles = 6000
	rows := Fig11(p, []int64{5, 60})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	low, high := rows[0], rows[1]
	// Fewer probes at higher thresholds (exponential decline in the paper).
	if low.ProbesSent <= high.ProbesSent {
		t.Fatalf("probes at tDD=5 (%.0f) should exceed tDD=60 (%.0f)",
			low.ProbesSent, high.ProbesSent)
	}
	// Flits dominate link usage in all configurations.
	for _, r := range rows {
		if r.FlitUtil <= r.ProbeUtil {
			t.Fatalf("flit utilization %.4f should dominate probes %.4f", r.FlitUtil, r.ProbeUtil)
		}
	}
	if renderText(t, fig11Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig12AppShape(t *testing.T) {
	p := Quick()
	p.Topologies = 2
	apps := []traffic.AppProfile{traffic.Rodinia()[4]} // BFS: light
	rows := Fig12(p, apps, map[topology.FaultKind][]int{
		topology.LinkFaults:   {4},
		topology.RouterFaults: {4},
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sampled == 0 {
			t.Fatalf("no usable topologies: %+v", r)
		}
		// Minimal-route schemes should be at least as good as the tree.
		if r.Norm[StaticBubble] < 0.9 {
			t.Fatalf("SB app throughput norm %.3f unexpectedly low", r.Norm[StaticBubble])
		}
	}
	if renderText(t, fig12Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFig13ParsecShape(t *testing.T) {
	p := Quick()
	p.Topologies = 2
	apps := []traffic.AppProfile{traffic.Parsec()[3]} // swaptions: lightest
	rows := Fig13(p, apps)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Sampled == 0 {
		t.Fatal("no usable topologies")
	}
	// PARSEC loads see no deadlocks: SB ≈ eVC runtime, both ≤ tree.
	if r.RuntimeNorm[StaticBubble] > 1.05 {
		t.Fatalf("SB runtime norm %.3f > 1", r.RuntimeNorm[StaticBubble])
	}
	// SB EDP beats eVC EDP (buffer overhead) and the tree.
	if r.EDPNorm[StaticBubble] >= r.EDPNorm[EscapeVC] {
		t.Fatalf("SB EDP %.3f should beat eVC %.3f", r.EDPNorm[StaticBubble], r.EDPNorm[EscapeVC])
	}
	if r.EDPNorm[StaticBubble] >= 1.0 {
		t.Fatalf("SB EDP %.3f should beat the tree", r.EDPNorm[StaticBubble])
	}
	if renderText(t, fig13Table(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestStepRange(t *testing.T) {
	got := stepRange(1, 10, 3)
	want := []int{1, 4, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("stepRange = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stepRange = %v, want %v", got, want)
		}
	}
}

func TestMeanAndSafeRatio(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
	if mean([]float64{2, 4}) != 3 {
		t.Fatal("mean broken")
	}
	if safeRatio(4, 2) != 2 || safeRatio(4, 0) != 1 {
		t.Fatal("safeRatio broken")
	}
}

func TestMCReachable(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	if !mcReachable(topo) {
		t.Fatal("healthy mesh must be usable")
	}
	heavy := topology.NewMesh(4, 4)
	for i := 0; i < 12; i++ {
		heavy.DisableRouter(topology.NewMesh(4, 4).AliveRouters()[i])
	}
	if mcReachable(heavy) {
		t.Fatal("mostly-dead mesh should be rejected")
	}
}

func TestAblationVariants(t *testing.T) {
	p := Quick()
	rows := Ablation(p)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
		if r.Recoveries == 0 {
			t.Fatalf("variant %s never recovered", r.Variant)
		}
		if r.RecoveryCycles >= 200000 {
			t.Fatalf("variant %s failed to drain", r.Variant)
		}
	}
	if byName["paper_placement"].Buffers != 21 {
		t.Fatalf("paper placement buffers = %d", byName["paper_placement"].Buffers)
	}
	if byName["bubble_everywhere"].Buffers != 64 {
		t.Fatalf("everywhere buffers = %d", byName["bubble_everywhere"].Buffers)
	}
	if byName["paper_no_check_probe"].CheckProbes != 0 {
		t.Fatal("no-check-probe variant sent check probes")
	}
	if byName["paper_placement"].CheckProbes == 0 {
		t.Fatal("paper variant should use check probes")
	}
	if renderText(t, ablationTable(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestScaleStudyShape(t *testing.T) {
	p := Quick()
	p.Topologies = 2
	p.MeasureCycles = 1500
	rows := Scale(p, [][2]int{{4, 4}, {6, 6}})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Bubbles != 5 { // 4x4: diagonal (1,1),(2,2),(3,3) plus (1,3),(3,1)
		t.Fatalf("4x4 bubbles = %d", rows[0].Bubbles)
	}
	if rows[1].Bubbles != 11 {
		t.Fatalf("6x6 bubbles = %d", rows[1].Bubbles)
	}
	for _, r := range rows {
		if r.BubbleFraction <= 0 || r.BubbleFraction > 0.5 {
			t.Fatalf("bubble fraction %.3f out of range", r.BubbleFraction)
		}
		if r.Norm[StaticBubble] <= 0 {
			t.Fatalf("degenerate saturation result: %+v", r)
		}
	}
	if renderText(t, scaleTable(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestFailureTimelineShape(t *testing.T) {
	p := Quick()
	p.Topologies = 2
	p.MeasureCycles = 3000
	rows := FailureTimeline(p)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLabel := map[string]FailureTimelineRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.Sampled == 0 || r.Delivered == 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	if byLabel["static_bubble"].ReconfigStall != 0 {
		t.Fatal("SB must pay no reconfiguration stall")
	}
	if byLabel["sp_tree"].ReconfigStall != churnTreeStall {
		t.Fatal("tree must pay the stall")
	}
	// With stalls, the tree schemes inject (and so deliver) less.
	if byLabel["static_bubble"].Delivered <= byLabel["sp_tree"].Delivered {
		t.Fatalf("SB delivered %d should exceed stalled tree %d",
			byLabel["static_bubble"].Delivered, byLabel["sp_tree"].Delivered)
	}
	if _, ok := byLabel["disha"]; !ok {
		t.Fatal("DISHA row missing")
	}
	if renderText(t, failuresTable(rows)) == "" {
		t.Fatal("empty print")
	}
}

func TestInstancePatternVariants(t *testing.T) {
	p := Quick()
	inst := p.Build(topology.NewMesh(4, 4), StaticBubble, 1)
	if inst.Pattern("bit_complement").Name() != "bit_complement" {
		t.Fatal("bit_complement pattern")
	}
	if inst.Pattern("transpose").Name() != "transpose" {
		t.Fatal("transpose pattern")
	}
	if inst.Pattern("anything_else").Name() != "uniform_random" {
		t.Fatal("default pattern")
	}
}

func TestMeasureWindowing(t *testing.T) {
	// The measurement window must exclude warmup deliveries from the
	// window-latency average but keep cumulative stats intact.
	p := Quick()
	p.WarmupCycles = 500
	p.MeasureCycles = 1500
	inst := p.Build(topology.NewMesh(4, 4), StaticBubble, 1)
	inj := inst.Injector(inst.Pattern("uniform_random"), 0.05, 2)
	m := Run(inst.Sim, inj, Phases{Warmup: p.WarmupCycles, Measure: p.MeasureCycles})
	if m.Delivered <= 0 {
		t.Fatal("no deliveries in the window")
	}
	if m.AvgLatency <= 0 || m.AcceptedFlits <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.Cycles != int64(p.WarmupCycles+p.MeasureCycles) {
		t.Fatalf("cycles = %d", m.Cycles)
	}
	// Window deliveries must be below cumulative deliveries (warmup
	// traffic existed).
	if m.Delivered >= m.Stats.Delivered {
		t.Fatal("window should exclude warmup deliveries")
	}
}

// TestRunDrainAndStop: the drain phase ticks no source and ends once the
// network is empty, and Stop ends the run wherever it fires, drain
// included.
func TestRunDrainAndStop(t *testing.T) {
	run := func(stopAt int64) RunMetrics {
		inst := Quick().Build(topology.NewMesh(4, 4), StaticBubble, 1)
		inj := inst.Injector(inst.Pattern("uniform_random"), 0.1, 2)
		return Run(inst.Sim, inj, Phases{Warmup: 100, Measure: 200, Drain: 5000,
			Stop: func(s *network.Sim) bool { return s.Now == stopAt }})
	}
	m := run(-1)
	if m.Left != 0 || m.DrainCycles == 0 || m.DrainCycles >= 5000 || m.Cycles != 300+m.DrainCycles {
		t.Fatalf("drain: %d left after %d drain cycles, clock %d", m.Left, m.DrainCycles, m.Cycles)
	}
	if m.Stats.Offered != m.Stats.Delivered {
		t.Fatalf("the drain offered traffic or lost it: %+v", m.Stats)
	}
	if m := run(150); m.Cycles != 150 || m.DrainCycles != 0 {
		t.Fatalf("stopped in the measure phase: clock %d, %d drain cycles", m.Cycles, m.DrainCycles)
	}
	if half := run(300 + m.DrainCycles/2); half.DrainCycles != m.DrainCycles/2 || half.Left == 0 {
		t.Fatalf("stopped in the drain: %d drain cycles, %d left", half.DrainCycles, half.Left)
	}
}

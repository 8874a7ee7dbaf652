package experiments

import "testing"

// benchSimScenario runs one named scenario under one core per iteration
// (compatible with the CI smoke tier's -benchtime=1x).
func benchSimScenario(b *testing.B, name string, ref bool) {
	for _, sc := range simBenchScenarios() {
		if sc.name != name {
			continue
		}
		var cycles int64
		for i := 0; i < b.N; i++ {
			stats, _, _, _ := runSimScenario(sc, ref, 1)
			if stats.Delivered == 0 {
				b.Fatalf("%s delivered nothing", name)
			}
			cycles += int64(sc.cycles)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		return
	}
	b.Fatalf("unknown scenario %q", name)
}

func BenchmarkSimEventIdleMesh(b *testing.B) { benchSimScenario(b, "idle_mesh_16x16", false) }
func BenchmarkSimRefIdleMesh(b *testing.B)   { benchSimScenario(b, "idle_mesh_16x16", true) }
func BenchmarkSimEventSaturation(b *testing.B) {
	benchSimScenario(b, "saturation_8x8", false)
}
func BenchmarkSimRefSaturation(b *testing.B) { benchSimScenario(b, "saturation_8x8", true) }
func BenchmarkSimEventSaturationSteady(b *testing.B) {
	benchSimScenario(b, "saturation_steady_8x8", false)
}
func BenchmarkSimRefSaturationSteady(b *testing.B) {
	benchSimScenario(b, "saturation_steady_8x8", true)
}
func BenchmarkSimEventRecoveryBurst(b *testing.B) {
	benchSimScenario(b, "recovery_burst_8x8_irregular", false)
}
func BenchmarkSimRefRecoveryBurst(b *testing.B) {
	benchSimScenario(b, "recovery_burst_8x8_irregular", true)
}
func BenchmarkSimEventRouteHeavyAdaptive(b *testing.B) {
	benchSimScenario(b, "route_heavy_adaptive_16x16", false)
}
func BenchmarkSimRefRouteHeavyAdaptive(b *testing.B) {
	benchSimScenario(b, "route_heavy_adaptive_16x16", true)
}

// TestSimBenchCoresAgree runs every benchmark scenario, cut to a
// Stats-agreement horizon of a few hundred cycles, under the refmodel
// and under Sim.Step at every BenchShardCounts entry and every
// GOMAXPROCS setting the host offers, and requires identical Stats
// (simBenchRows errors on any divergence). Nothing here depends on wall
// time or core count: timing and allocation gates over the full-length
// scenarios live in cmd/benchdiff and sbsweep -check-zero-alloc.
func TestSimBenchCoresAgree(t *testing.T) {
	const horizon = 400
	scenarios := simBenchScenarios()
	want := 0
	for i := range scenarios {
		sc := &scenarios[i]
		if sc.cycles > horizon {
			sc.cycles = horizon
		}
		if sc.warmup >= sc.cycles {
			sc.warmup = sc.cycles / 2
		}
		for _, shards := range BenchShardCounts {
			want += len(benchProcCounts(shards))
		}
	}
	rs, err := simBenchRows(scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != want {
		t.Fatalf("expected %d rows (one per scenario, shard count and GOMAXPROCS setting), got %d", want, len(rs))
	}
	for _, r := range rs {
		if r.Delivered == 0 {
			t.Errorf("%s (shards=%d): delivered nothing — scenario is not exercising the core",
				r.Scenario, r.Shards)
		}
	}
}

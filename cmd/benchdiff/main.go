// Command benchdiff compares two BENCH_sim.json files (sbsweep -fig
// bench output) and fails when a gated scenario's event core got more
// than -threshold slower. CI runs it with the old file downloaded from
// the main branch's most recent bench artifact, so a PR cannot silently
// regress steady-state simulation throughput.
//
// Three gates run:
//
//   - Cross-file: per scenario, the minimum event ns/cycle across shard
//     counts (the minimum damps scheduler and machine noise far better
//     than any single row) must not rise by more than -threshold. The
//     per-(scenario, shards) rows are reported alongside so a regression
//     confined to one shard count is visible even when the min hides it.
//
//   - Intra-file scaling: within the NEW file alone, the sharded stepper
//     must not scale backwards — shards=4 must stay within a per-scenario
//     limit of shards=1 (see scalingGates). Rows benched without enough
//     OS parallelism (GoMaxProcs below the shard count) are skipped, not
//     failed: on a 1-CPU runner a sharded row can only measure overhead,
//     and gating it would reject every PR the runner ever sees.
//
//   - Intra-file speedup floors: within the NEW file alone, Sim.Step
//     must not be slower than the refmodel full scan on the idle mesh,
//     and incremental recompiles must stay >=10x cheaper than cold ones
//     at 32x32 (see speedupGates). These are wall-clock ratios, so they
//     live here rather than in go test.
//
// Scenarios present on only one side are reported but never fail the
// gate — adding or retiring a scenario is not a regression.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 0.10 -all old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/experiments"
)

func main() {
	threshold := flag.Float64("threshold", 0.10, "maximum allowed fractional slowdown of event ns/cycle in gated scenarios")
	gateAll := flag.Bool("all", false, "gate every scenario, not just the default gated set")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-all] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRows, err := readBench(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newRows, err := readBench(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	failed := diffScenarios(oldRows, newRows, *threshold, *gateAll)
	if checkScaling(newRows) {
		failed = true
	}
	if checkSpeedups(newRows) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// gatedScenarios are the scenarios whose throughput the cross-file gate
// protects: the steady-state regimes whose timing is reproducible enough
// for a threshold comparison. That includes the sharded 32x32 saturation
// scenario — the workload the sharded stepper exists for. The
// past-saturation 8x8 and recovery-storm scenarios are reported but
// ungated (their queues grow unboundedly, so their timings swing with
// allocator behavior).
var gatedScenarios = map[string]bool{
	"idle_mesh_16x16":            true,
	"saturation_steady_8x8":      true,
	"saturation_steady_32x32":    true,
	"route_heavy_adaptive_16x16": true,
	"churn_16x16":                true,
	// churn_32x32 is the scale where per-event table work shows up in
	// the hot loop; compile_64x64 gates the incremental recompiler's
	// ns/epoch directly (its "event" core is the incremental compile,
	// its "refmodel" the from-scratch parallel compile).
	"churn_32x32":   true,
	"compile_64x64": true,
	// The 16x16 steady-saturation mesh is the fused arbitration pass's
	// gated regime: nearly the whole fabric is active every cycle, so
	// regressing it means the bitset allocator lost its edge.
	"saturation_steady_16x16": true,
}

// scalingGates bound, within a single bench file, how shards=4 may
// compare against shards=1 (ns4 <= limit * ns1). The idle mesh is pure
// synchronization overhead — quiet batching should make sharding close
// to free. The 32x32 saturation mesh is the parallel payoff case: with
// real cores underneath, 4 shards must come out meaningfully ahead, and
// a limit below 1 means "backwards scaling fails the gate" rather than
// merely "regression versus last week". Both checks are skipped when
// the row was measured with GoMaxProcs < 4.
var scalingGates = []struct {
	scenario string
	limit    float64
}{
	{"idle_mesh_16x16", 1.10},
	{"saturation_steady_32x32", 0.80},
}

// speedupGates bound, within a single bench file, a scenario's measured
// core against its own reference (Speedup = reference time / measured
// time, at shards=1). On the idle mesh the reference is the refmodel
// full scan: a ratio below 1 means skipping idle routers costs more
// than visiting them. On compile_32x32 the reference is the cold
// parallel compile: single-link churn must keep incremental epochs
// >=10x cheaper (the margin is ~100x, so 10x is noise-safe).
var speedupGates = []struct {
	scenario string
	min      float64
}{
	{"idle_mesh_16x16", 1},
	{"compile_32x32", 10},
}

// checkSpeedups applies speedupGates to the new file and reports
// whether any scenario fell below its floor.
func checkSpeedups(newRows []experiments.SimBenchResult) bool {
	failed := false
	for _, g := range speedupGates {
		r, ok := bestRow(newRows, g.scenario, 1)
		if !ok {
			fmt.Printf("speedup %-30s skipped: no shards=1 row\n", g.scenario)
			continue
		}
		verdict := "ok"
		if r.Speedup < g.min {
			verdict = "BELOW FLOOR"
			failed = true
		}
		fmt.Printf("speedup %-30s %.2fx vs reference (floor %.0fx)  %s\n", g.scenario, r.Speedup, g.min, verdict)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: a scenario fell below its speedup floor")
	}
	return failed
}

// key identifies one bench row. GoMaxProcs is part of the identity
// because the harness emits both a single-proc row (pure algorithmic
// cost) and a best-parallelism row for sharded scenarios; comparing a
// single-proc old row against a multi-proc new row would manufacture
// phantom speedups.
type key struct {
	scenario   string
	shards     int
	gomaxprocs int
}

// diffScenarios prints the per-(scenario, shards) comparison plus the
// min-across-shards verdict per scenario, and reports whether any gated
// scenario regressed past the threshold.
func diffScenarios(oldRows, newRows []experiments.SimBenchResult, threshold float64, gateAll bool) bool {
	oldBy, newBy := byKey(oldRows), byKey(newRows)
	oldNs, newNs := minByScenario(oldRows), minByScenario(newRows)
	names := make([]string, 0, len(newNs))
	for name := range newNs {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("%-30s %7s %14s %14s %8s %6s\n", "scenario", "sh x p", "old ns/cyc", "new ns/cyc", "delta", "gated")
	failed := false
	for _, name := range names {
		// Per-(shards, procs) detail rows: informational, so a slowdown
		// confined to one configuration is visible even when the
		// min-based gate passes.
		rowKeys := make([]key, 0, 8)
		for k := range newBy {
			if k.scenario == name {
				rowKeys = append(rowKeys, k)
			}
		}
		sort.Slice(rowKeys, func(i, j int) bool {
			if rowKeys[i].shards != rowKeys[j].shards {
				return rowKeys[i].shards < rowKeys[j].shards
			}
			return rowKeys[i].gomaxprocs < rowKeys[j].gomaxprocs
		})
		for _, k := range rowKeys {
			nr := newBy[k]
			label := fmt.Sprintf("%dx%d", k.shards, k.gomaxprocs)
			if or, ok := oldBy[k]; ok {
				d := nr.EventNsPerCycle/or.EventNsPerCycle - 1
				fmt.Printf("%-30s %7s %14.0f %14.0f %+7.1f%% %6s\n", name, label, or.EventNsPerCycle, nr.EventNsPerCycle, d*100, "")
			} else {
				fmt.Printf("%-30s %7s %14s %14.0f %8s %6s\n", name, label, "-", nr.EventNsPerCycle, "new", "")
			}
		}
		// Scenario verdict row: min across shard counts.
		old, ok := oldNs[name]
		if !ok {
			fmt.Printf("%-30s %7s %14s %14.0f %8s %6s\n", name, "min", "-", newNs[name], "new", "-")
			continue
		}
		delta := newNs[name]/old - 1
		gated := gateAll || gatedScenarios[name]
		mark := "no"
		if gated {
			mark = "yes"
		}
		verdict := ""
		if gated && delta > threshold {
			verdict = "  REGRESSION"
			failed = true
		}
		fmt.Printf("%-30s %7s %14.0f %14.0f %+7.1f%% %6s%s\n", name, "min", old, newNs[name], delta*100, mark, verdict)
	}
	for name := range oldNs {
		if _, ok := newNs[name]; !ok {
			fmt.Printf("%-30s %7s %14.0f %14s %8s %6s\n", name, "min", oldNs[name], "-", "gone", "-")
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: event core slower by more than %.0f%% in a gated scenario\n", threshold*100)
	}
	return failed
}

// checkScaling applies scalingGates to the new file and reports whether
// any scenario scaled backwards past its limit.
func checkScaling(newRows []experiments.SimBenchResult) bool {
	failed := false
	for _, g := range scalingGates {
		// Compare the fastest row at each shard count: shards=1 has only
		// the single-proc row, while shards=4 is benched both single-proc
		// (overhead measurement) and at full parallelism — the latter is
		// what the scaling contract is about.
		r1, ok1 := bestRow(newRows, g.scenario, 1)
		r4, ok4 := bestRow(newRows, g.scenario, 4)
		if !ok1 || !ok4 {
			fmt.Printf("scaling %-30s skipped: missing shards=1 or shards=4 row\n", g.scenario)
			continue
		}
		if r4.GoMaxProcs < 4 {
			fmt.Printf("scaling %-30s skipped: benched at GOMAXPROCS=%d (<4), sharded rows measure only overhead\n",
				g.scenario, r4.GoMaxProcs)
			continue
		}
		ratio := r4.EventNsPerCycle / r1.EventNsPerCycle
		verdict := "ok"
		if ratio > g.limit {
			verdict = "BACKWARDS SCALING"
			failed = true
		}
		fmt.Printf("scaling %-30s shards4/shards1 = %.2f (limit %.2f)  %s\n", g.scenario, ratio, g.limit, verdict)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: sharded stepper scales backwards in a gated scenario")
	}
	return failed
}

func byKey(rows []experiments.SimBenchResult) map[key]experiments.SimBenchResult {
	m := make(map[key]experiments.SimBenchResult, len(rows))
	for _, r := range rows {
		m[key{r.Scenario, r.Shards, r.GoMaxProcs}] = r
	}
	return m
}

// bestRow returns the fastest row for (scenario, shards), preferring
// higher GoMaxProcs on a tie so the scaling gate's GoMaxProcs skip
// check sees the most parallel measurement available.
func bestRow(rows []experiments.SimBenchResult, scenario string, shards int) (experiments.SimBenchResult, bool) {
	var best experiments.SimBenchResult
	found := false
	for _, r := range rows {
		if r.Scenario != scenario || r.Shards != shards {
			continue
		}
		if !found || r.EventNsPerCycle < best.EventNsPerCycle ||
			(r.EventNsPerCycle == best.EventNsPerCycle && r.GoMaxProcs > best.GoMaxProcs) {
			best = r
			found = true
		}
	}
	return best, found
}

// minByScenario reduces rows to each scenario's fastest event time
// across shard counts.
func minByScenario(rows []experiments.SimBenchResult) map[string]float64 {
	min := make(map[string]float64)
	for _, r := range rows {
		if cur, ok := min[r.Scenario]; !ok || r.EventNsPerCycle < cur {
			min[r.Scenario] = r.EventNsPerCycle
		}
	}
	return min
}

func readBench(path string) ([]experiments.SimBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []experiments.SimBenchResult
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows", path)
	}
	return rows, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

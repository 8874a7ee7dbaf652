// Command sbsweep regenerates the paper's evaluation tables and figures
// (Section V). Each -fig selects one experiment; -scale quick runs a
// reduced sweep for a fast smoke pass, -scale full approaches the paper's
// sampling.
//
// Sweeps run on the internal/sweep engine: a bounded worker pool
// (-jobs) with a content-addressed on-disk result cache under
// results/cache/ (-cache-dir, -no-cache). An interrupted run (Ctrl-C)
// keeps every completed cell; rerunning with -resume simulates only the
// missing ones. -progress prints live status and an ETA to stderr.
//
// Usage:
//
//	sbsweep -fig 2          # deadlock-prone topology fraction
//	sbsweep -fig 3          # deadlock-onset heat map
//	sbsweep -fig t1         # Table I buffer counts
//	sbsweep -fig 8|9|10|11|12|13
//	sbsweep -fig all -scale quick
//	sbsweep -fig 9 -resume -progress   # continue an interrupted sweep
//	sbsweep -fig scalegrid             # sharded-stepper timing table (16x16/32x32/64x64; never part of "all")
//	sbsweep -fig adversary -scale quick -adv-evals 24   # worst-case SLO search
//	sbsweep -fig churn -scale quick    # continuous-churn availability/recovery SLOs
//	sbsweep -fig 9 -shards 4           # run each simulation sharded
//	sbsweep -fig 9 -route-cache-stats  # report compiled routing-table cache efficiency
//	sbsweep -fig 9 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// How fast the simulator itself runs is measured by `go run ./bench`,
// not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/memprof"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// figIDs are the experiments -fig can name, in the order "all" runs them.
var figIDs = []string{"t1", "2", "3", "8", "9", "10", "11", "12", "13",
	"failures", "churn", "scale", "scalegrid", "adversary", "ablation"}

// selectFigs resolves a -fig value to the set of experiments to run.
// "all" is every experiment except scalegrid: a wall-clock timing run
// up to 64x64 that ignores -scale/-topos/-seed/-jobs and must not share
// the machine with a sweep, so it runs only when named.
func selectFigs(fig string) (map[string]bool, error) {
	sel := map[string]bool{}
	for _, id := range figIDs {
		if fig == id || (fig == "all" && id != "scalegrid") {
			sel[id] = true
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown -fig %q (valid: %s, or all)", fig, strings.Join(figIDs, ", "))
	}
	return sel, nil
}

func main() {
	fig := flag.String("fig", "all", "experiment: "+strings.Join(figIDs, ", ")+", or all (everything but scalegrid)")
	advEvals := flag.Int("adv-evals", 0, "with -fig adversary: cap on unique scenario evaluations (0 = scale default)")
	shards := flag.Int("shards", 1, "per-simulation shard count (1 = sequential core; results are identical for any value)")
	scale := flag.String("scale", "full", "quick or full")
	topos := flag.Int("topos", 0, "override topologies per point")
	seed := flag.Int64("seed", 0, "base seed for topology sampling")
	format := flag.String("format", "table", "output format: table or csv")
	jobs := flag.Int("jobs", 0, "concurrent simulation jobs (0 = all cores)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache")
	resume := flag.Bool("resume", false, "reuse cached cells from a previous or interrupted run")
	progress := flag.Bool("progress", false, "print live progress and ETA to stderr")
	cacheDir := flag.String("cache-dir", sweep.DefaultCacheDir, "result cache location")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	routeCacheStats := flag.Bool("route-cache-stats", false, "print compiled routing-table cache counters (compiles, hit rate, bytes held) to stderr at exit")
	flag.Parse()
	asCSV := *format == "csv"
	figs, err := selectFigs(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbsweep:", err)
		os.Exit(2)
	}

	// flushProfiles finalizes -cpuprofile/-memprofile output. It runs via
	// defer on the normal path and is called explicitly before every
	// os.Exit after this point (os.Exit skips defers), so CI gets its
	// profile artifacts even when a run fails a gate. Idempotent.
	var stopCPU func() error
	flushProfiles := func() {
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				fmt.Fprintln(os.Stderr, "sbsweep:", err)
			}
			stopCPU = nil
		}
		if *memProfile != "" {
			if err := memprof.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "sbsweep:", err)
			}
			*memProfile = ""
		}
	}
	defer flushProfiles()
	if *cpuProfile != "" {
		stop, err := memprof.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsweep:", err)
			os.Exit(1)
		}
		stopCPU = stop
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "sbsweep:", err)
		flushProfiles()
		os.Exit(1)
	}

	var p experiments.Params
	switch *scale {
	case "quick":
		p = experiments.Quick()
	case "full":
		p = experiments.Params{}
	default:
		fmt.Fprintln(os.Stderr, "sbsweep: -scale must be quick or full")
		os.Exit(2)
	}
	p.BaseSeed = *seed
	if *topos > 0 {
		p.Topologies = *topos
	}
	p.Shards = *shards

	// Ctrl-C cancels between jobs; completed cells stay on disk, so a
	// -resume rerun picks up where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := sweep.Config{Workers: *jobs, Ctx: ctx, Resume: *resume}
	if !*noCache {
		cfg.Cache = &sweep.Cache{Dir: *cacheDir, Salt: experiments.CodeVersion}
	}
	if *progress {
		// Callback invocations are serialized by the engine.
		var lastPrint time.Time
		cfg.Progress = func(s stats.ProgressSnapshot) {
			if s.Done < s.Total && time.Since(lastPrint) < time.Second {
				return
			}
			lastPrint = time.Now()
			fmt.Fprintln(os.Stderr, s)
		}
	}
	engine := sweep.New(cfg)
	p.Engine = engine

	run := func(id string, fn func()) {
		if !figs[id] || ctx.Err() != nil {
			return
		}
		start := time.Now()
		fn()
		fmt.Fprintf(os.Stderr, "(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}

	emit := func(table func(), csvFn func() error) func() {
		if asCSV {
			return func() {
				if err := csvFn(); err != nil {
					fatal(err)
				}
			}
		}
		return table
	}
	run("t1", emit(
		func() { experiments.PrintTable1(os.Stdout, experiments.Table1(p, nil)) },
		func() error { return experiments.Table1CSV(os.Stdout, experiments.Table1(p, nil)) }))
	run("2", emit(
		func() { experiments.PrintFig2(os.Stdout, experiments.Fig2(p, nil)) },
		func() error { return experiments.Fig2CSV(os.Stdout, experiments.Fig2(p, nil)) }))
	run("3", emit(
		func() { experiments.PrintFig3(os.Stdout, experiments.Fig3(p, nil, nil)) },
		func() error { return experiments.Fig3CSV(os.Stdout, experiments.Fig3(p, nil, nil)) }))
	run("8", emit(
		func() { experiments.PrintFig8(os.Stdout, experiments.Fig8(p, nil, nil)) },
		func() error { return experiments.Fig8CSV(os.Stdout, experiments.Fig8(p, nil, nil)) }))
	run("9", emit(
		func() { experiments.PrintFig9(os.Stdout, experiments.Fig9(p, nil)) },
		func() error { return experiments.Fig9CSV(os.Stdout, experiments.Fig9(p, nil)) }))
	run("10", emit(
		func() { experiments.PrintFig10(os.Stdout, experiments.Fig10(p, nil)) },
		func() error { return experiments.Fig10CSV(os.Stdout, experiments.Fig10(p, nil)) }))
	run("11", emit(
		func() { experiments.PrintFig11(os.Stdout, experiments.Fig11(p, nil)) },
		func() error { return experiments.Fig11CSV(os.Stdout, experiments.Fig11(p, nil)) }))
	run("12", emit(
		func() { experiments.PrintFig12(os.Stdout, experiments.Fig12(p, nil, nil)) },
		func() error { return experiments.Fig12CSV(os.Stdout, experiments.Fig12(p, nil, nil)) }))
	run("13", emit(
		func() { experiments.PrintFig13(os.Stdout, experiments.Fig13(p, nil)) },
		func() error { return experiments.Fig13CSV(os.Stdout, experiments.Fig13(p, nil)) }))
	run("failures", emit(
		func() { experiments.PrintFailureTimeline(os.Stdout, experiments.FailureTimeline(p, 0, 0)) },
		func() error {
			experiments.PrintFailureTimeline(os.Stdout, experiments.FailureTimeline(p, 0, 0))
			return nil
		}))
	// Continuous-churn availability/recovery-SLO comparison: Poisson
	// link/router fail+recover events overlapping freely over ≥1M cycles
	// (full scale), Static Bubble vs spanning-tree re-election vs a
	// DBR-style regional-stall baseline. Reports p50/p99/p99.9 recovery
	// latency, availability, and delivered-packet latency SLOs from
	// streaming quantile sketches merged across seeds.
	churnCfg := experiments.ChurnConfig{}
	churnP := p
	if *scale == "quick" {
		churnCfg = experiments.QuickChurn()
	} else {
		// Full scale runs the 256-router mesh so a router loss is a 1/256
		// event, matching the availability framing.
		churnP.Width, churnP.Height = 16, 16
	}
	run("churn", emit(
		func() { experiments.PrintChurn(os.Stdout, churnCfg, experiments.Churn(churnP, churnCfg)) },
		func() error { return experiments.ChurnCSV(os.Stdout, experiments.Churn(churnP, churnCfg)) }))
	run("scale", emit(
		func() { experiments.PrintScale(os.Stdout, experiments.Scale(p, nil)) },
		func() error {
			experiments.PrintScale(os.Stdout, experiments.Scale(p, nil))
			return nil
		}))
	// Sharded-stepper timing table: one recovery-storm recipe at 16x16
	// (the paper's 256-router scale point, 89 SBs), 32x32 and 64x64 with
	// bisection-scaled injection, each size run at shard counts 1/2/4/8
	// with byte-identical Stats verified. Not a sweep-engine job —
	// timings must not share the machine — and each row records
	// GOMAXPROCS so single-CPU measurements are self-describing.
	run("scalegrid", func() {
		rows, err := experiments.ScaleGrid(nil)
		if err != nil {
			fatal(err)
		}
		experiments.PrintScaleGrid(os.Stdout, rows)
	})
	// Adversarial worst-case SLO search: hill climb with restarts over
	// (faults × traffic × control-plane perturbation), each candidate
	// evaluated as one sweep-engine job. Reproducible for a fixed -seed
	// and budget; cached cells make a rerun or -resume instant.
	run("adversary", func() {
		cfg := experiments.AdversaryConfig(*scale == "quick", *seed, *advEvals)
		res, err := experiments.Adversary(p, cfg)
		if err != nil {
			fatal(err)
		}
		if asCSV {
			if err := experiments.AdversaryCSV(os.Stdout, res); err != nil {
				fatal(err)
			}
		} else {
			experiments.PrintAdversary(os.Stdout, res)
		}
	})
	run("ablation", emit(
		func() { experiments.PrintAblation(os.Stdout, experiments.Ablation(p)) },
		func() error { return experiments.AblationCSV(os.Stdout, experiments.Ablation(p)) }))

	st := engine.Stats()
	fmt.Fprintf(os.Stderr, "sweep engine: %d jobs (%d executed, %d cached, %d failed, %d cancelled)\n",
		st.Jobs, st.Executed, st.CacheHits, st.Failed, st.Cancelled)
	if *routeCacheStats {
		fmt.Fprintln(os.Stderr, routing.CacheStats())
	}
	if st.CacheWriteErrs > 0 {
		fmt.Fprintf(os.Stderr, "sbsweep: warning: %d results could not be written to %s — a -resume rerun will resimulate them\n",
			st.CacheWriteErrs, *cacheDir)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "sbsweep: interrupted — completed cells are cached; rerun with -resume to continue")
		flushProfiles()
		os.Exit(130)
	}
}

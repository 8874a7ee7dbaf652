// Command sbsweep regenerates the paper's evaluation tables and figures
// (Section V) and this repository's extension studies. It is a loop over
// experiments.Figures: -fig selects one entry by ID (or "all": every
// entry), -scale quick runs a reduced sweep for a
// fast smoke pass, -scale full approaches the paper's sampling, and
// -format renders whatever the experiment returns as an aligned table or
// as CSV. Unknown -fig, -format and -scale values, and negative -topos,
// -jobs and -adv-evals values, exit 2.
//
// Sweeps run on the internal/sweep engine: a bounded worker pool
// (-jobs) with a content-addressed on-disk result cache under
// results/cache/ (-cache-dir, -no-cache). An interrupted run (Ctrl-C)
// keeps every completed cell; rerunning with -resume simulates only the
// missing ones. -progress prints live status and an ETA to stderr.
//
// Usage (sbsweep -h lists the IDs -fig accepts):
//
//	sbsweep -fig <id>                  # one experiment at paper scale
//	sbsweep -fig all -scale quick      # smoke-run everything
//	sbsweep -fig <id> -format csv      # the same rows, machine-readable
//	sbsweep -fig <id> -resume -progress   # continue an interrupted sweep
//	sbsweep -fig <id> -adv-evals 24    # cap the worst-case SLO search's unique evaluations
//	sbsweep -fig <id> -route-cache-stats  # report compiled routing-table cache efficiency
//	sbsweep -fig <id> -cpuprofile cpu.pprof -memprofile mem.pprof
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

// figIDs lists what -fig can name, in the order "all" runs them.
func figIDs() string {
	var ids []string
	for _, f := range experiments.Figures {
		ids = append(ids, f.ID)
	}
	return strings.Join(ids, ", ")
}

// selectFigs resolves a -fig value to the experiments to run, in
// registry order. "all" is every experiment.
func selectFigs(fig string) ([]experiments.Figure, error) {
	var sel []experiments.Figure
	for _, f := range experiments.Figures {
		if fig == f.ID || fig == "all" {
			sel = append(sel, f)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown -fig %q (valid: %s, or all)", fig, figIDs())
	}
	return sel, nil
}

// checkCounts rejects a negative value of a count flag, whose zero
// selects a default: a negative one would otherwise run that default
// without a word.
func checkCounts(topos, jobs, advEvals int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-topos", topos}, {"-jobs", jobs}, {"-adv-evals", advEvals}} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative (0 selects the default), got %d", f.name, f.v)
		}
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", "experiment: "+figIDs()+", or all")
	advEvals := flag.Int("adv-evals", 0, "with -fig adversary: cap on unique scenario evaluations (0 = scale default)")
	scale := flag.String("scale", "full", "quick or full")
	topos := flag.Int("topos", 0, "override topologies per point")
	seed := flag.Int64("seed", 0, "base seed for topology sampling")
	format := flag.String("format", "table", "output format, for every experiment: table or csv")
	jobs := flag.Int("jobs", 0, "concurrent simulation jobs (0 = all cores)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache")
	resume := flag.Bool("resume", false, "reuse cached cells from a previous or interrupted run")
	progress := flag.Bool("progress", false, "print live progress and ETA to stderr")
	cacheDir := flag.String("cache-dir", sweep.DefaultCacheDir, "result cache location")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	routeCacheStats := flag.Bool("route-cache-stats", false, "print compiled routing-table cache counters (compiles, hit rate, bytes held) to stderr at exit")
	flag.Parse()
	figs, err := selectFigs(*fig)
	if err == nil && *format != "table" && *format != "csv" {
		err = fmt.Errorf("-format must be table or csv")
	}
	if err == nil {
		err = checkCounts(*topos, *jobs, *advEvals)
	}
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

	for _, f := range figs {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		tables, err := f.Run(p, *scale == "quick", *advEvals)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			write := t.WriteText
			if *format == "csv" {
				write = t.WriteCSV
			}
			if err := write(os.Stdout); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "(%s completed in %.1fs)\n\n", f.ID, time.Since(start).Seconds())
	}

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

package experiments

// Micro/meso benchmarks of the simulator core: each scenario is run
// twice on identical seeds — once through Sim.Step and
// once through the refmodel full scan — timing both and checking they
// land on identical Stats. Results feed BENCH_sim.json (sbsweep -fig
// bench, also produced as a CI artifact) and EXPERIMENTS.md.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/memprof"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SimBenchResult is one scenario's event-vs-refmodel timing comparison
// at one shard count.
type SimBenchResult struct {
	Scenario string `json:"scenario"`
	// Shards is the event core's shard count for this row (1 = the
	// plain sequential event core). All shard counts of one scenario
	// produce — and are verified to produce — identical Stats.
	Shards int `json:"shards"`
	Cycles int `json:"cycles"`
	// Warmup is the cycle count excluded from the allocation window:
	// pools, arenas, scratch buffers and lazy routing tables grow to
	// their steady size there. Timing covers the whole run; allocation
	// metrics cover only cycles [Warmup, Cycles).
	Warmup int `json:"warmup_cycles"`
	// Wall nanoseconds per simulated cycle under each core.
	EventNsPerCycle float64 `json:"event_ns_per_cycle"`
	RefNsPerCycle   float64 `json:"refmodel_ns_per_cycle"`
	// Build nanoseconds for each run's scenario construction before
	// cycle 0: topology sampling plus routing-table compilation (or a
	// compiled-table cache hit — the refmodel run goes first, so event
	// rows of cached scenarios show the hit cost, not the compile).
	EventBuildNs int64 `json:"event_build_ns"`
	RefBuildNs   int64 `json:"refmodel_build_ns"`
	// Speedup is refmodel time / event time (>1 means the event core wins).
	Speedup float64 `json:"speedup"`
	// Post-warmup heap allocation rate of the event core (objects and
	// bytes per simulated cycle, traffic generation included). The
	// zero-alloc steady-state scenarios gate on this being exactly 0.
	EventAllocsPerCycle float64 `json:"event_allocs_per_cycle"`
	EventBytesPerCycle  float64 `json:"event_bytes_per_cycle"`
	// Delivered (identical under both cores — verified) sizes the workload.
	Delivered int64 `json:"delivered"`
	// GoMaxProcs records the host parallelism the timings were taken
	// under. Consumers comparing shard counts (the benchdiff scaling
	// gate) must ignore sharded rows taken with GoMaxProcs below the
	// shard count: with fewer cores than shards the parallel phases can
	// only show scheduling overhead, never speedup.
	GoMaxProcs int `json:"gomaxprocs"`
}

// simScenario builds a fresh deterministic simulation and its per-cycle
// traffic source. Every build() of one scenario must produce the exact
// same trajectory — for any shard count — so the cores can be timed on
// identical work.
type simScenario struct {
	name   string
	cycles int
	// warmup must be < cycles; see SimBenchResult.Warmup.
	warmup int
	build  func(shards int) (*network.Sim, func())
}

// simBenchScenarios covers the three load regimes Sim.Step must
// handle: a large mostly-idle mesh (the win case: inactive routers cost
// nothing), a saturated mesh (the guard case: everything is active, so
// active-set overhead must stay negligible), and a deadlock-recovery
// burst on an irregular topology (the correctness-hard case: fences,
// bubbles and probe storms waking routers out of band).
func simBenchScenarios() []simScenario {
	return []simScenario{
		{
			name:   "idle_mesh_16x16",
			cycles: 30000,
			warmup: 5000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(16, 16)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(11)))
				core.Attach(s, core.Options{})
				s.PrewarmPool(512, 32, 16)
				inj := traffic.NewInjector(topo.AliveRouters(), routing.MinimalFor(topo),
					traffic.NewUniformRandom(topo.AliveRouters()), 0.002, rand.New(rand.NewSource(12)))
				// Trickle traffic for the first half, then a drained tail:
				// the regime where routers are inactive and the full scan pays for
				// 256 no-op routers every cycle.
				return s, func() {
					if s.Now < 15000 {
						inj.Tick(s)
					}
				}
			},
		},
		{
			// Past the saturation point NI queues grow for the whole run
			// (~2.2 packets/cycle), so steady-state recycling alone cannot
			// make the window alloc-free: the pool keeps minting packets it
			// never gets back and the rings keep resizing — historically
			// ~4.6 objects/cycle of measured "leak". The prewarm is
			// therefore sized for the full run's peak live population
			// (≈13.5k packets at cycle 4000) and ring high-water, which restores
			// exactly-zero window allocation and lets the gate cover the
			// saturated regime — sequential and sharded — rather than
			// excluding it.
			name:   "saturation_8x8",
			cycles: 4000,
			warmup: 1000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(8, 8)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(21)))
				core.Attach(s, core.Options{}).PrewarmMessages(4096)
				s.PrewarmPool(20480, 16, 512)
				inj := traffic.NewInjector(topo.AliveRouters(), routing.MinimalFor(topo),
					traffic.NewUniformRandom(topo.AliveRouters()), 0.35, rand.New(rand.NewSource(22)))
				return s, func() { inj.Tick(s) }
			},
		},
		{
			// Offered load (~0.15 flits/node/cycle) below the uniform-random
			// saturation point (~0.19): the in-flight population — and with
			// it every pool, arena and scratch buffer — reaches a stable
			// size inside the warmup, so the measured window is the
			// archetypal inject→deliver→recycle steady state the zero-alloc
			// gate asserts on. saturation_8x8 above sits past saturation
			// (queues grow without bound) and stays alloc-free only because
			// its prewarm covers the whole run's growth; this scenario is
			// the regime where recycling alone sustains the zero.
			name:   "saturation_steady_8x8",
			cycles: 6000,
			warmup: 3000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(8, 8)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(41)))
				core.Attach(s, core.Options{})
				s.PrewarmPool(1024, 16, 32)
				inj := traffic.NewInjector(topo.AliveRouters(), routing.MinimalFor(topo),
					traffic.NewUniformRandom(topo.AliveRouters()), 0.15, rand.New(rand.NewSource(42)))
				return s, func() { inj.Tick(s) }
			},
		},
		{
			// The mid-size steady saturation regime: 256 routers just
			// below the 16×16 uniform-random saturation point (bisection
			// scaling halves the 8×8 point: ~0.19*(8/16) ≈ 0.095
			// flits/node/cycle). Nearly the whole fabric stays busy every
			// cycle with a bounded in-flight population — the regime the
			// fused bitset allocation pass targets — so this row is
			// benchdiff-gated alongside the 8×8 saturation rows to keep
			// that win from regressing at a size where the sharded
			// stepper is also competitive.
			name:   "saturation_steady_16x16",
			cycles: 4000,
			warmup: 2000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(16, 16)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(51)))
				core.Attach(s, core.Options{})
				s.PrewarmPool(4096, 32, 64)
				inj := traffic.NewInjector(topo.AliveRouters(), routing.MinimalFor(topo),
					traffic.NewUniformRandom(topo.AliveRouters()), 0.09, rand.New(rand.NewSource(52)))
				return s, func() { inj.Tick(s) }
			},
		},
		{
			// The sharded stepper's headline regime: a 1024-router mesh
			// just below its uniform-random saturation point (which scales
			// with the bisection, ~0.19*(8/32) ≈ 0.05 flits/node/cycle), so
			// the whole fabric is busy every cycle while the in-flight
			// population stays bounded. This is the scenario the
			// shards=4-vs-1 scaling gate (benchdiff) and the EXPERIMENTS.md
			// scaling section measure.
			name:   "saturation_steady_32x32",
			cycles: 3000,
			warmup: 1500,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(32, 32)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(61)))
				core.Attach(s, core.Options{}).PrewarmMessages(2048)
				s.PrewarmPool(16384, 64, 128)
				inj := traffic.NewInjector(topo.AliveRouters(), routing.MinimalFor(topo),
					traffic.NewUniformRandom(topo.AliveRouters()), 0.04, rand.New(rand.NewSource(62)))
				return s, func() { inj.Tick(s) }
			},
		},
		{
			// Continuous churn on a 16×16 mesh: elements fail mid-run and
			// recover through the reconfig event queue while Static Bubble
			// traffic keeps flowing. This is the regime the overlap-safe
			// reconfiguration path (epoch bumps, table-cache lookups,
			// in-place repair, SchemeHandler resets) adds to the hot loop,
			// and the scenario the churn benchdiff gate tracks. All shard
			// counts replay the identical fail/recover timeline: the
			// manager mutates only between Steps, which the seam protocol
			// makes shard-invariant.
			name:   "churn_16x16",
			cycles: 20000,
			warmup: 4000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(16, 16)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(71)))
				ctl := core.Attach(s, core.Options{})
				mgr := reconfig.New(s)
				mgr.SetScheme(ctl)
				alg := mgr.Algorithm()
				rng := rand.New(rand.NewSource(72))
				num := topo.NumNodes()
				return s, func() {
					now := s.Now
					if now%800 == 400 {
						// Fail one element; queue its recovery behind the next
						// failure so events overlap (fail at t, fail at t+800,
						// first recovery at t+1200).
						if rng.Intn(4) == 0 {
							alive := topo.AliveRouters()
							n := alive[rng.Intn(len(alive))]
							mgr.Submit(reconfig.Event{Kind: reconfig.EvFailRouter, Node: n})
							mgr.SubmitAt(now+1200, reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n})
						} else {
							links := topo.AliveUndirectedLinks()
							l := links[rng.Intn(len(links))]
							mgr.Submit(reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir})
							mgr.SubmitAt(now+1200, reconfig.Event{Kind: reconfig.EvRecoverLink, Node: l.From, Dir: l.Dir})
						}
					}
					mgr.Tick()
					// 0.01 packets/node/cycle of 5-flit packets ≈ 0.05
					// flits/node/cycle — about half the 16×16 uniform-random
					// saturation point, so queues stay bounded even with a few
					// elements down and the timing is gate-stable.
					for n := 0; n < num; n++ {
						src := geom.NodeID(n)
						if rng.Float64() >= 0.01 || !topo.RouterAlive(src) {
							continue
						}
						dst := geom.NodeID(rng.Intn(num))
						if dst == src || !topo.RouterAlive(dst) {
							continue
						}
						if r, ok := alg.Route(src, dst, rng); ok {
							s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, r))
						} else {
							s.Drop()
						}
					}
				}
			},
		},
		{
			// The same continuous-churn regime at 32×32 (1024 routers):
			// the scale where per-event table recompilation used to cost a
			// visible slice of the run. With the incremental recompiler a
			// single-element flap repairs a handful of columns instead of
			// rebuilding 2·n² entries, and flap-backs hit the manager's
			// fingerprint LRU outright; this scenario (benchdiff-gated)
			// keeps that on the hot path the gate watches.
			name:   "churn_32x32",
			cycles: 8000,
			warmup: 2000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.NewMesh(32, 32)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(81)))
				ctl := core.Attach(s, core.Options{})
				mgr := reconfig.New(s)
				mgr.SetScheme(ctl)
				alg := mgr.Algorithm()
				rng := rand.New(rand.NewSource(82))
				num := topo.NumNodes()
				return s, func() {
					now := s.Now
					if now%800 == 400 {
						if rng.Intn(4) == 0 {
							alive := topo.AliveRouters()
							n := alive[rng.Intn(len(alive))]
							mgr.Submit(reconfig.Event{Kind: reconfig.EvFailRouter, Node: n})
							mgr.SubmitAt(now+1200, reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n})
						} else {
							links := topo.AliveUndirectedLinks()
							l := links[rng.Intn(len(links))]
							mgr.Submit(reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir})
							mgr.SubmitAt(now+1200, reconfig.Event{Kind: reconfig.EvRecoverLink, Node: l.From, Dir: l.Dir})
						}
					}
					mgr.Tick()
					// 0.005 packets/node/cycle of 5-flit packets ≈ 0.025
					// flits/node/cycle — half the 32×32 uniform-random
					// saturation point (≈0.05), so queues stay bounded with
					// elements down and the timing is gate-stable.
					for n := 0; n < num; n++ {
						src := geom.NodeID(n)
						if rng.Float64() >= 0.005 || !topo.RouterAlive(src) {
							continue
						}
						dst := geom.NodeID(rng.Intn(num))
						if dst == src || !topo.RouterAlive(dst) {
							continue
						}
						if r, ok := alg.Route(src, dst, rng); ok {
							s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, r))
						} else {
							s.Drop()
						}
					}
				}
			},
		},
		{
			name:   "recovery_burst_8x8_irregular",
			cycles: 4000,
			warmup: 1000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 18, 42)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(31)))
				// Hair-trigger detection keeps recovery storms running for
				// most of the window.
				core.Attach(s, core.Options{TDD: 24})
				inj := traffic.NewInjector(topo.AliveRouters(), routing.MinimalFor(topo),
					traffic.NewUniformRandom(topo.AliveRouters()), 0.12, rand.New(rand.NewSource(32)))
				return s, func() { inj.Tick(s) }
			},
		},
		{
			// Per-hop adaptive routing on a heavily faulted 16×16: every
			// traversal consults the routing tables at every router, so
			// this scenario is bound by routing-table lookups rather than
			// switch traversal — the regime the compiled flat tables (and
			// their cross-run cache) exist for. adaptive.Attach requires
			// the unsharded stepper, so all shard counts of this row time
			// the same sequential core (verified-identical Stats as ever).
			name:   "route_heavy_adaptive_16x16",
			cycles: 4000,
			warmup: 1000,
			build: func(shards int) (*network.Sim, func()) {
				topo := topology.RandomIrregular(16, 16, topology.LinkFaults, 40, 7)
				s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(51)))
				core.Attach(s, core.Options{})
				c := adaptive.Attach(s)
				s.PrewarmPool(2048, 32, 32)
				alive := topo.AliveRouters()
				rng := rand.New(rand.NewSource(52))
				return s, func() {
					for _, src := range alive {
						if rng.Float64() >= 0.05 {
							continue
						}
						dst := alive[rng.Intn(len(alive))]
						if dst == src || !c.Reachable(src, dst) {
							continue
						}
						s.Enqueue(c.NewPacket(src, dst, 0, 5))
					}
				}
			},
		},
	}
}

// runSimScenario executes one scenario under the chosen core and returns
// its final stats, the stepping wall time, and the post-warmup heap
// allocation delta. Only the step calls are timed: traffic generation is
// identical under both cores and would otherwise dilute the comparison.
// The allocation window covers everything after the warmup cycle —
// injection included, since a zero-alloc steady state that excluded
// traffic generation would be meaningless.
// simBenchReps is how many times each (scenario, core, shards, procs)
// cell is run; the fastest rep is recorded. Back-to-back runs on a
// shared host differ by double-digit percent, and the minimum is the
// stablest estimator of the code's intrinsic cost — single-shot rows
// made the speedup gates flake.
const simBenchReps = 3

// benchProcCounts returns the GOMAXPROCS settings to measure for a
// shard count. Every configuration gets a single-proc row — the
// apples-to-apples baseline the speedup and scaling gates compare —
// and sharded configurations add one multi-proc variant (procs =
// min(shards, NumCPU)) on hosts with the cores to run it, so
// BENCH_sim.json records real parallel scaling rather than time-sliced
// workers.
func benchProcCounts(shards int) []int {
	if shards <= 1 || runtime.NumCPU() <= 1 {
		return []int{1}
	}
	procs := shards
	if n := runtime.NumCPU(); procs > n {
		procs = n
	}
	return []int{1, procs}
}

// runSimScenarioBest runs one bench cell simBenchReps times under the
// given GOMAXPROCS and keeps the fastest rep's timings. Stats must
// agree across reps — every build is deterministic, so divergence is a
// determinism bug, not noise. The allocation delta folds by min for
// the same reason the timing does: the runtime's own park/unpark
// machinery occasionally allocates in a rep, while a real per-cycle
// leak shows up in every rep.
func runSimScenarioBest(sc simScenario, useRef bool, shards, procs, reps int) (network.Stats, time.Duration, time.Duration, memprof.Delta, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var stats network.Stats
	var bestDur, bestBuild time.Duration
	var bestAlloc memprof.Delta
	for rep := 0; rep < reps; rep++ {
		st, dur, build, alloc := runSimScenario(sc, useRef, shards)
		if rep == 0 {
			stats, bestDur, bestBuild, bestAlloc = st, dur, build, alloc
			continue
		}
		if st != stats {
			return stats, 0, 0, memprof.Delta{}, fmt.Errorf(
				"bench %s (shards=%d, procs=%d): rep %d diverged from rep 0\nrep:   %+v\nfirst: %+v",
				sc.name, shards, procs, rep, st, stats)
		}
		if dur < bestDur {
			bestDur, bestBuild = dur, build
		}
		if alloc.Allocs < bestAlloc.Allocs {
			bestAlloc = alloc
		}
	}
	return stats, bestDur, bestBuild, bestAlloc, nil
}

func runSimScenario(sc simScenario, useRef bool, shards int) (network.Stats, time.Duration, time.Duration, memprof.Delta) {
	b0 := time.Now()
	s, tick := sc.build(shards)
	buildDur := time.Since(b0)
	step := s.Step
	if useRef {
		step = refmodel.New(s).Step
	}
	var total time.Duration
	var base memprof.Snapshot
	for c := 0; c < sc.cycles; c++ {
		if c == sc.warmup {
			base = memprof.Take()
		}
		tick()
		t0 := time.Now()
		step()
		total += time.Since(t0)
	}
	return s.Stats, total, buildDur, memprof.Take().Since(base)
}

// compileBenchSpecs parameterize the routing-table recompilation
// benchmark rows appended to BENCH_sim.json. Each epoch flaps one
// random link (fail on even epochs, recover it on odd ones — the
// fingerprint-cache-free worst case of churn's dominant event shape)
// and times the incremental recompile against a from-scratch parallel
// compile of the same topology, asserting bit-identical tables outside
// the timed region. The row reuses the SimBenchResult shape:
// EventNsPerCycle is incremental ns/epoch, RefNsPerCycle is full
// ns/epoch, Speedup = full/incremental — the ≥10x single-link-churn
// claim compile_32x32 demonstrates and the benchdiff gate on
// compile_64x64 protects.
var compileBenchSpecs = []struct {
	name         string
	w, h, epochs int
	seed         int64
}{
	{"compile_32x32", 32, 32, 24, 91},
	{"compile_64x64", 64, 64, 8, 92},
}

func runCompileBench(name string, w, h, epochs int, seed int64) (SimBenchResult, error) {
	topo := topology.NewMesh(w, h)
	rng := rand.New(rand.NewSource(seed))
	min := routing.NewMinimal(topo)
	var flapFrom geom.NodeID
	var flapDir geom.Direction
	var incNs, fullNs int64
	for e := 0; e < epochs; e++ {
		if e%2 == 0 {
			links := topo.AliveUndirectedLinks()
			l := links[rng.Intn(len(links))]
			flapFrom, flapDir = l.From, l.Dir
			topo.DisableLink(flapFrom, flapDir)
		} else {
			topo.EnableLink(flapFrom, flapDir)
		}
		t0 := time.Now()
		inc, st := min.Recompile(topo)
		incNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		full := routing.NewMinimal(topo)
		fullNs += time.Since(t0).Nanoseconds()
		if st.Full {
			return SimBenchResult{}, fmt.Errorf("bench %s epoch %d: single-link delta took the full-compile fallback (%+v)", name, e, st)
		}
		if !routing.MinimalTablesEqual(inc, full) {
			return SimBenchResult{}, fmt.Errorf("bench %s epoch %d: incremental recompile diverged from full compile", name, e)
		}
		min = inc
	}
	ep := float64(epochs)
	return SimBenchResult{
		Scenario:        name,
		Shards:          1,
		Cycles:          epochs,
		EventNsPerCycle: float64(incNs) / ep,
		RefNsPerCycle:   float64(fullNs) / ep,
		Speedup:         safeRatio(float64(fullNs), float64(incNs)),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
	}, nil
}

// BenchShardCounts are the event-core shard counts BENCH_sim.json is
// parametrized over.
var BenchShardCounts = []int{1, 2, 4}

// SimBench runs every benchmark scenario under the refmodel full scan
// and under the event core at each of BenchShardCounts, verifies every
// run lands on identical Stats, and returns one timing row per
// (scenario, shard count). The refmodel pass runs first so the event
// passes cannot benefit from warmer caches.
func SimBench() ([]SimBenchResult, error) {
	out, err := simBenchRows(simBenchScenarios(), simBenchReps)
	if err != nil {
		return nil, err
	}
	for _, cb := range compileBenchSpecs {
		row, err := runCompileBench(cb.name, cb.w, cb.h, cb.epochs, cb.seed)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// simBenchRows runs the given scenarios reps times per cell and returns
// one row per (scenario, shard count, GOMAXPROCS), erroring on any
// Stats divergence between the refmodel and a Sim.Step run.
func simBenchRows(scenarios []simScenario, reps int) ([]SimBenchResult, error) {
	var out []SimBenchResult
	for _, sc := range scenarios {
		refStats, refDur, refBuild, _, err := runSimScenarioBest(sc, true, 1, 1, reps)
		if err != nil {
			return nil, err
		}
		measured := float64(sc.cycles - sc.warmup)
		for _, shards := range BenchShardCounts {
			for _, procs := range benchProcCounts(shards) {
				evStats, evDur, evBuild, evAlloc, err := runSimScenarioBest(sc, false, shards, procs, reps)
				if err != nil {
					return nil, err
				}
				if evStats != refStats {
					return nil, fmt.Errorf("bench %s (shards=%d, procs=%d): cores diverged\nevent:    %+v\nrefmodel: %+v",
						sc.name, shards, procs, evStats, refStats)
				}
				out = append(out, SimBenchResult{
					Scenario:            sc.name,
					Shards:              shards,
					Cycles:              sc.cycles,
					Warmup:              sc.warmup,
					EventNsPerCycle:     float64(evDur.Nanoseconds()) / float64(sc.cycles),
					RefNsPerCycle:       float64(refDur.Nanoseconds()) / float64(sc.cycles),
					EventBuildNs:        evBuild.Nanoseconds(),
					RefBuildNs:          refBuild.Nanoseconds(),
					Speedup:             safeRatio(float64(refDur.Nanoseconds()), float64(evDur.Nanoseconds())),
					EventAllocsPerCycle: float64(evAlloc.Allocs) / measured,
					EventBytesPerCycle:  float64(evAlloc.Bytes) / measured,
					Delivered:           evStats.Delivered,
					GoMaxProcs:          procs,
				})
			}
		}
	}
	return out, nil
}

// ZeroAllocScenarios names the scenarios whose post-warmup window must
// allocate nothing: the drained idle mesh, the below-saturation
// inject→deliver→recycle loops (8x8 sequential and 32x32 sharded), and
// the past-saturation mesh whose full-run growth is prewarmed. Only the
// recovery-storm and adaptive-routing scenarios stay ungated: their
// windows are dominated by controller message churn and lazy
// routing-table state whose growth is legitimate. Every gated scenario
// is checked at every BenchShardCounts entry, so the sharded stepper's
// sinks and plans are held to the same zero as the sequential
// core — at saturation included.
var ZeroAllocScenarios = map[string]bool{
	"idle_mesh_16x16":         true,
	"saturation_8x8":          true,
	"saturation_steady_8x8":   true,
	"saturation_steady_16x16": true,
	"saturation_steady_32x32": true,
}

// zeroAllocNoiseBudget is the absolute number of heap objects a gated
// run may allocate before the gate fails. The window is measured with
// ReadMemStats, which counts every goroutine — including the runtime's
// own park/unpark machinery for the sharded stepper's workers, which
// very occasionally allocates a sudog or grows a deferred cache (≈1
// object per multi-thousand-cycle run, nondeterministically). A real
// per-cycle leak shows up as hundreds of objects per run, so a small
// absolute budget rejects leaks without flaking on scheduler noise.
const zeroAllocNoiseBudget = 8

// CheckZeroAlloc fails if any zero-alloc steady-state scenario reported
// heap allocation in its measured window, at any shard count (beyond
// the scheduler-noise budget above). This is the regression gate CI
// runs over BENCH_sim.json.
func CheckZeroAlloc(rs []SimBenchResult) error {
	checked := 0
	for _, r := range rs {
		if !ZeroAllocScenarios[r.Scenario] {
			continue
		}
		checked++
		window := float64(r.Cycles - r.Warmup)
		if r.EventAllocsPerCycle*window > zeroAllocNoiseBudget {
			return fmt.Errorf("zero-alloc gate: %s (shards=%d) allocated %.4g objects/cycle (%.4g B/cycle) after warmup",
				r.Scenario, r.Shards, r.EventAllocsPerCycle, r.EventBytesPerCycle)
		}
	}
	if checked == 0 {
		return fmt.Errorf("zero-alloc gate: no gated scenarios present in results")
	}
	return nil
}

// WriteSimBenchJSON writes results as indented JSON (the BENCH_sim.json
// format: a top-level array of SimBenchResult).
func WriteSimBenchJSON(w io.Writer, rs []SimBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// PrintSimBench renders the comparison as a table.
func PrintSimBench(w io.Writer, rs []SimBenchResult) {
	fmt.Fprintf(w, "%-30s %7s %8s %14s %14s %8s %11s %12s %12s %10s\n",
		"scenario", "shards", "cycles", "event ns/cyc", "ref ns/cyc", "speedup", "build us", "allocs/cyc", "bytes/cyc", "delivered")
	for _, r := range rs {
		fmt.Fprintf(w, "%-30s %7d %8d %14.0f %14.0f %7.2fx %11.0f %12.3f %12.1f %10d\n",
			r.Scenario, r.Shards, r.Cycles, r.EventNsPerCycle, r.RefNsPerCycle, r.Speedup,
			float64(r.EventBuildNs)/1e3, r.EventAllocsPerCycle, r.EventBytesPerCycle, r.Delivered)
	}
}

package experiments

// ScaleGrid is the sharded stepper's manual timing table: one fixed
// recovery-storm recipe — an irregular topology under adversarial link
// faults with injection heavy enough to keep deadlock recovery active —
// at 16×16 (the paper's 256-router scale point, Table I: 89 static
// bubbles), 32×32 and 64×64, each run once per shard count with
// byte-identical Stats demanded across all counts (the shard
// determinism contract, DESIGN.md §9). Injection rates are
// bisection-scaled so every size sits in the same past-saturation
// regime, and each row records GOMAXPROCS so a single-CPU measurement
// (where sharded rows can only show overhead) is distinguishable from a
// real parallel one.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ScaleGridResult is one (mesh size, shard count) timing row.
type ScaleGridResult struct {
	Width      int
	Height     int
	Shards     int
	Cycles     int
	NsPerCycle float64
	// Speedup is the same size's Shards=1 step time over this row's.
	Speedup float64
	// Delivered and Recoveries are identical across a size's shard
	// counts — verified before any row is emitted.
	Delivered  int64
	Recoveries int64
	// SBRouters is the static-bubble placement size for this mesh.
	SBRouters int
	// GoMaxProcs records the host parallelism the wall-clock numbers
	// were taken under: with GOMAXPROCS=1 the sharded rows can only
	// show scheduling overhead, never parallel speedup.
	GoMaxProcs int
}

// scaleGridPoint fixes one mesh size's trajectory. Rates scale with the
// bisection (uniform-random saturation falls roughly linearly in mesh
// edge length), keeping every size past its own saturation point so
// deadlock recovery stays active without the queues exploding; cycle
// counts shrink with size so the grid finishes in minutes.
type scaleGridPoint struct {
	w, h      int
	faults    int
	cycles    int
	injectEnd int
	rate      float64
}

var scaleGridPoints = []scaleGridPoint{
	{16, 16, 30, 8000, 4000, 0.06},
	{32, 32, 60, 3000, 1500, 0.03},
	{64, 64, 120, 1200, 600, 0.02},
}

// ScaleGridShardCounts are the shard counts each size sweeps.
var ScaleGridShardCounts = []int{1, 2, 4, 8}

// runScaleGrid executes one size's fixed trajectory at one shard count.
// Only Step calls are timed; injection draws are identical across shard
// counts by construction (the rng never observes simulator state beyond
// RouterAlive, which faults fix before cycle 0).
func runScaleGrid(pt scaleGridPoint, shards int) (network.Stats, time.Duration) {
	topo := topology.RandomIrregular(pt.w, pt.h, topology.LinkFaults, pt.faults, 5)
	min := routing.MinimalFor(topo)
	s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{TDD: 34})
	rng := rand.New(rand.NewSource(2))
	nodes := pt.w * pt.h
	offer := traffic.NewBernoulli(pt.rate)
	var total time.Duration
	for cyc := 0; cyc < pt.cycles; cyc++ {
		if cyc < pt.injectEnd {
			for n := 0; n < nodes; n++ {
				if !topo.RouterAlive(geom.NodeID(n)) || !offer.Draw(rng) {
					continue
				}
				dst := geom.NodeID(rng.Intn(nodes))
				r, ok := min.Route(geom.NodeID(n), dst, rng)
				if !ok {
					s.Drop()
					continue
				}
				ln := 1
				if rng.Intn(2) == 0 {
					ln = 5
				}
				s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), ln, r))
			}
		}
		t0 := time.Now()
		s.Step()
		total += time.Since(t0)
	}
	return s.Stats, total
}

// ScaleGrid runs every point at every shard count, verifies each
// point's shard counts land on byte-identical Stats, and returns the
// timing rows (Speedup relative to the same point's Shards=1 run). Nil
// points selects scaleGridPoints.
func ScaleGrid(points []scaleGridPoint) ([]ScaleGridResult, error) {
	if points == nil {
		points = scaleGridPoints
	}
	var out []ScaleGridResult
	for _, pt := range points {
		sbRouters := len(core.Placement(pt.w, pt.h))
		var base network.Stats
		var baseNs float64
		for i, shards := range ScaleGridShardCounts {
			stats, dur := runScaleGrid(pt, shards)
			ns := float64(dur.Nanoseconds()) / float64(pt.cycles)
			if i == 0 {
				base, baseNs = stats, ns
			} else if stats != base {
				return nil, fmt.Errorf("scalegrid %dx%d: shards=%d diverged from shards=%d\nshards=%d: %+v\nshards=%d: %+v",
					pt.w, pt.h, shards, ScaleGridShardCounts[0], shards, stats, ScaleGridShardCounts[0], base)
			}
			out = append(out, ScaleGridResult{
				Width:      pt.w,
				Height:     pt.h,
				Shards:     shards,
				Cycles:     pt.cycles,
				NsPerCycle: ns,
				Speedup:    safeRatio(baseNs, ns),
				Delivered:  stats.Delivered,
				Recoveries: stats.DeadlockRecoveries,
				SBRouters:  sbRouters,
				GoMaxProcs: runtime.GOMAXPROCS(0),
			})
		}
	}
	return out, nil
}

// scaleGridTables renders the sweep for reading as one block per mesh
// size, and for machines as one table over every (size, shards) row.
func scaleGridTables(rs []ScaleGridResult) []Table {
	var out []Table
	all := Table{Cols: []Column{
		{CSV: "mesh"}, {CSV: "shards"}, {CSV: "cycles"}, {CSV: "ns_per_cycle"}, {CSV: "speedup"},
		{CSV: "delivered"}, {CSV: "recoveries"}, {CSV: "sb_routers"}, {CSV: "gomaxprocs"},
	}}
	for i, r := range rs {
		if i == 0 || r.Width != rs[i-1].Width {
			out = append(out, Table{
				Title: fmt.Sprintf("%dx%d irregular recovery storm: %d SB routers, %d cycles, GOMAXPROCS=%d",
					r.Width, r.Height, r.SBRouters, r.Cycles, r.GoMaxProcs),
				Cols: []Column{
					{Head: "shards", Verb: "%7d"}, {Head: "ns/cycle", Verb: "%14.0f"}, {Head: "speedup", Verb: "%12s"},
					{Head: "delivered", Verb: "%10d"}, {Head: "recoveries", Verb: "%11d"},
				},
			})
		}
		block := &out[len(out)-1]
		block.Rows = append(block.Rows, []any{r.Shards, r.NsPerCycle, fmt.Sprintf("%.2fx", r.Speedup), r.Delivered, r.Recoveries})
		all.Rows = append(all.Rows, []any{fmt.Sprintf("%dx%d", r.Width, r.Height), r.Shards, r.Cycles,
			r.NsPerCycle, r.Speedup, r.Delivered, r.Recoveries, r.SBRouters, r.GoMaxProcs})
	}
	return append(out, all)
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each FigN function runs the corresponding
// sweep over sampled irregular topologies and returns printable rows;
// cmd/sbsweep drives them at full scale and bench_test.go at reduced
// scale. EXPERIMENTS.md records measured-vs-paper outcomes.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// CodeVersion salts every cache key of the sweep result cache. Bump it
// whenever a change alters simulated results (routing, simulator timing,
// the recovery protocol, seed derivation, ...) so stale cache entries are
// never wrongly reused; clearing results/cache/ afterwards merely
// reclaims the disk.
const CodeVersion = "sb-sim-4"

// Scheme identifies a deadlock-freedom design under comparison.
type Scheme int

// The three designs of Section V-B.
const (
	// SpanningTree is baseline 1: deadlock avoidance via up*/down*
	// routing (Ariadne-style); non-minimal paths, no recovery needed.
	SpanningTree Scheme = iota
	// EscapeVC is baseline 2: minimal routes plus timeout-triggered
	// escape VCs routed over the spanning tree (Router Parking style).
	EscapeVC
	// StaticBubble is the paper's scheme: minimal routes plus the
	// SB placement and recovery FSMs.
	StaticBubble
)

// Schemes lists all three in presentation order.
var Schemes = []Scheme{SpanningTree, EscapeVC, StaticBubble}

func (s Scheme) String() string {
	switch s {
	case SpanningTree:
		return "sp_tree"
	case EscapeVC:
		return "escape_vc"
	case StaticBubble:
		return "static_bubble"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// EnergyKey returns the scheme key used by energy.SchemeOverheadBuffers.
func (s Scheme) EnergyKey() string {
	switch s {
	case EscapeVC:
		return "evc"
	case StaticBubble:
		return "sb"
	default:
		return "tree"
	}
}

// Params holds the sweep-wide configuration. Zero values select paper
// defaults (8×8 mesh, Table II network, Section V-A sampling).
type Params struct {
	Width, Height int
	// Topologies is the number of sampled irregular topologies per fault
	// count (the paper grows this until trends stabilize; ~100 suffices,
	// smaller values trade accuracy for speed). Default 30.
	Topologies int
	// WarmupCycles and MeasureCycles bound each simulation run.
	// Defaults 1000 and 8000.
	WarmupCycles, MeasureCycles int
	// TDD is the SB detection threshold (Table II: 34).
	TDD int64
	// BaseSeed decorrelates independent sweeps.
	BaseSeed int64
	// SpinMode switches Static Bubble recovery to the follow-up work's
	// synchronized cycle rotation (core.Options.Spin).
	SpinMode bool
	// Engine selects the sweep execution engine (worker count, result
	// cache, cancellation, progress). It is execution configuration
	// only — it never affects simulated results and is excluded from
	// cache keys. Nil selects a default engine (all cores, no cache).
	Engine *sweep.Engine
}

func (p Params) withDefaults() Params {
	if p.Width == 0 {
		p.Width = 8
	}
	if p.Height == 0 {
		p.Height = 8
	}
	if p.Topologies == 0 {
		p.Topologies = 30
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = 1000
	}
	if p.MeasureCycles == 0 {
		p.MeasureCycles = 8000
	}
	if p.TDD == 0 {
		p.TDD = 34
	}
	return p
}

// Quick returns a reduced-scale parameter set for tests and benches.
func Quick() Params {
	return Params{
		Width: 8, Height: 8,
		Topologies:    4,
		WarmupCycles:  300,
		MeasureCycles: 2000,
	}
}

// Instance bundles one scheme simulation over one topology: the
// simulator, the algorithm that computes packet routes, and the
// up/down structure (needed by the escape scheme and available for
// inspection).
type Instance struct {
	Scheme Scheme
	Sim    *network.Sim
	Alg    routing.Algorithm
	UpDown *routing.UpDown
	SB     *core.Controller
}

// Build constructs a scheme instance over topo. The topology must not be
// mutated afterwards: routing tables come from the process-wide compiled
// cache (routing.MinimalFor/UpDownFor), so every (seed, rate) point
// over one topology content — including Clone()s, which
// fingerprint identically — shares a single compile.
func (p Params) Build(topo *topology.Topology, sch Scheme, seed int64) *Instance {
	p = p.withDefaults()
	s := network.New(topo, network.Config{}, rand.New(&lazySource{seed: seed}))
	inst := &Instance{Scheme: sch, Sim: s}
	switch sch {
	case SpanningTree:
		// Baseline 1 uses Ariadne's topology-agnostic root election; the
		// escape scheme's tree (below) is the optimized Router
		// Parking-style one. It routes along tree paths through the
		// lowest common ancestor ("via the root", paper Section I).
		inst.UpDown = routing.UpDownFor(topo, routing.RootLowestID)
		inst.Alg = inst.UpDown.TreeAlgorithm()
	case EscapeVC:
		inst.UpDown = routing.UpDownFor(topo, routing.RootMedian)
		inst.Alg = routing.MinimalFor(topo)
		escape.Attach(s, inst.UpDown)
	case StaticBubble:
		inst.Alg = routing.MinimalFor(topo)
		inst.SB = core.Attach(s, core.Options{TDD: p.TDD, Spin: p.SpinMode})
	}
	return inst
}

// lazySource is rand.NewSource(seed), seeded on its first draw. Only
// reconfig draws a Sim's Rng, so most instances a sweep builds never
// pay the source's seeding. The stream is the eager source's: rand.New
// uses the Uint64 below, and Seed before the first draw only moves the
// seed the source will start from.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64   { return l.source().Int63() }
func (l *lazySource) Uint64() uint64 { return l.source().Uint64() }

func (l *lazySource) Seed(seed int64) {
	if l.src == nil {
		l.seed = seed
		return
	}
	l.src.Seed(seed)
}

// Injector builds a Table II synthetic-traffic injector for this
// instance at the given flit rate.
func (inst *Instance) Injector(pattern traffic.Pattern, rate float64, seed int64) *traffic.Injector {
	alive := inst.Sim.Topo.AliveRouters()
	return traffic.NewInjector(alive, inst.Alg, pattern, rate, rand.New(rand.NewSource(seed)))
}

// Pattern builds a named traffic pattern over the instance's topology.
func (inst *Instance) Pattern(name string) traffic.Pattern {
	topo := inst.Sim.Topo
	switch name {
	case "bit_complement":
		return traffic.BitComplement{Width: topo.Width(), Height: topo.Height()}
	case "transpose":
		return traffic.Transpose{Width: topo.Width()}
	default:
		return traffic.NewUniformRandom(topo.AliveRouters())
	}
}

// SampleTopology returns the i-th sampled irregular topology for a fault
// configuration, deterministically derived from the sweep seed.
func (p Params) SampleTopology(kind topology.FaultKind, faults, i int) *topology.Topology {
	p = p.withDefaults()
	seed := p.BaseSeed + int64(kind)*1_000_003 + int64(faults)*10_007 + int64(i)
	return topology.RandomIrregular(p.Width, p.Height, kind, faults, seed)
}

// engine returns the configured execution engine, or a fresh default
// (all cores, no cache, no cancellation) when none was set.
func (p Params) engine() *sweep.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return sweep.New(sweep.Config{})
}

// cellKey is the cache/seed identity of one simulation cell: the
// experiment name plus every simulation-affecting Params field; callers
// append the cell coordinates (pattern, fault kind/count, topology
// index, ...). Topologies is deliberately absent — it is the sweep's
// extent, not cell content, so growing the sample reuses every cell
// already computed. escape_timeout and tree_all_links are the keys of
// removed Params fields, written at the only values any cached cell ever
// had so derived seeds and cache entries keep their identity.
func (p Params) cellKey(experiment string) *sweep.Key {
	p = p.withDefaults()
	return sweep.NewKey(experiment).
		Int("w", p.Width).Int("h", p.Height).
		Int("warmup", p.WarmupCycles).Int("measure", p.MeasureCycles).
		Int64("tdd", p.TDD).Int64("escape_timeout", 34).
		Int64("base_seed", p.BaseSeed).
		Bool("spin", p.SpinMode).Bool("tree_all_links", false)
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// safeRatio returns a/b, or 1 when b is zero (equal-performance
// fallback for degenerate topologies).
func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// mcReachable reports whether the topology keeps a usable "memory
// controller" node reachable from most nodes — the paper only evaluates
// application traffic on topologies that do not disconnect the MCs.
func mcReachable(topo *topology.Topology) bool {
	lc := topo.LargestComponent()
	return len(lc) >= topo.NumNodes()/2
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// workload is one set of inputs. Work is fixed, never timed out: a
// repetition performs exactly ops units, and ops is a pure function of
// the literals below and --seconds, so two commits simulate the same
// cycles and their simulated statistics compare exactly.
type workload struct {
	name string
	// unit names one op: cell, block, event or episode.
	unit string
	// opsPerSecond sizes a repetition: the units the reference host
	// (2 cores, see BENCHMARK.json) completes per second of --seconds.
	opsPerSecond float64
	// setupReps is how many cold set-ups a child times (median taken).
	setupReps int
	run       func(r *run)
	// first builds the workload's first instance alone, for the
	// refmodel prefix check.
	first func(r *run) *inst
	// probeTopo is the topology the routing-table probes compile;
	// updown adds the up*/down* table to them.
	probeTopo func() *topology.Topology
	updown    bool
	// sidePass, when set, runs after the traced repetition.
	sidePass func(r *run)
}

var workloads = []*workload{
	{name: "paper_sweep_8x8", unit: "cell", opsPerSecond: 13, setupReps: 1, run: runPaperSweep, first: firstPaperSweep,
		probeTopo: sweepProbeTopo, updown: true},
	{name: "sat_mesh_16x16", unit: "block", opsPerSecond: 43, setupReps: 9, run: runBlocksOf(buildSatMesh), first: buildSatMesh,
		probeTopo: func() *topology.Topology { return topology.NewMesh(16, 16) }, sidePass: (*run).shardedSidePass},
	{name: "idle_mesh_32x32", unit: "block", opsPerSecond: 290, setupReps: 3, run: runBlocksOf(buildIdleMesh), first: buildIdleMesh,
		probeTopo: mesh32},
	{name: "churn_32x32", unit: "event", opsPerSecond: 25, setupReps: 3, run: runChurn, first: buildChurn,
		probeTopo: mesh32},
	{name: "recovery_storm_8x8", unit: "episode", opsPerSecond: 100, setupReps: 9, run: runStorm, first: func(r *run) *inst { return buildStorm(r, 0) },
		probeTopo: func() *topology.Topology { return stormTopo(stormTable[0].topoSeed) }},
	{name: "adaptive_faulty_16x16", unit: "block", opsPerSecond: 40, setupReps: 5, run: runBlocksOf(buildAdaptive), first: buildAdaptive,
		probeTopo: adaptiveTopo},
}

func mesh32() *topology.Topology { return topology.NewMesh(32, 32) }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opsFor is the op count of one repetition.
func (w *workload) opsFor(seconds float64, reps int) int {
	n := int(w.opsPerSecond*seconds/float64(reps) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// sample builds a topology under a topology.sample span.
func (r *run) sample(build func() *topology.Topology) *topology.Topology {
	t0 := r.tr.start()
	t := build()
	r.tr.stop(lTopoSample, t0)
	return t
}

func (r *run) mesh(wd, ht int) *topology.Topology {
	return r.sample(func() *topology.Topology { return topology.NewMesh(wd, ht) })
}

// newSim is network.New + PrewarmPool, under a
// network.new span, with the traced pass's delivery observer.
func (r *run) newSim(topo *topology.Topology, shards int, seed int64, packets, routeLen, niDepth int) *network.Sim {
	t0 := r.tr.start()
	s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(seed)))
	s.PrewarmPool(packets, routeLen, niDepth)
	r.tr.stop(lNetworkNew, t0)
	r.observe(s)
	return s
}

func (r *run) minimal(topo *topology.Topology) *routing.Minimal {
	t0 := r.tr.start()
	m := routing.MinimalFor(topo)
	r.tr.stop(lRoutingTable, t0)
	return m
}

// injector builds the Table II synthetic source over alg and returns
// its timed Tick.
func (r *run) injector(s *network.Sim, alg routing.Algorithm, p traffic.Pattern, rate float64, seed int64) func() {
	t0 := r.tr.start()
	inj := traffic.NewInjector(s.Topo.AliveRouters(), r.alg(alg), p, rate, rand.New(rand.NewSource(seed)))
	r.tr.stop(lTrafficNew, t0)
	return func() {
		t0 := r.tr.start()
		inj.Tick(s)
		r.tr.stop(lTrafficTick, t0)
	}
}

// runBlocks is the body of the single-instance workloads: ops units of
// n cycles each, then the end-of-run checks.
func (r *run) runBlocks(in *inst, n int) {
	for b := 0; b < r.ops; b++ {
		r.unitStart(b)
		r.block(in, b, n)
		if b+1 == sideBlocks(r.ops) {
			r.sideStats = in.s.Stats
		}
	}
	r.closeAllocWindow()
	r.finish(in)
}

// runBlocksOf is the run function of a workload that sets up one
// instance with build and steps it in 1000-cycle blocks.
func runBlocksOf(build func(*run) *inst) func(*run) {
	return func(r *run) {
		var in *inst
		r.setup(func() { in = build(r) })
		r.runBlocks(in, blockCycles)
	}
}

// --- sat_mesh_16x16: the stepper's throughput case -------------------

const satRate = 0.09 // flits/node/cycle, just under 16×16 saturation

func buildSatMesh(r *run) *inst { return buildSat(r, 1) }

func buildSat(r *run, shards int) *inst {
	topo := r.mesh(16, 16)
	s := r.newSim(topo, shards, r.stream(0), 4096, 32, 64)
	sb := r.attachSB(s, core.Options{})
	tick := r.injector(s, r.minimal(topo), traffic.NewUniformRandom(topo.AliveRouters()), satRate, r.stream(1))
	return &inst{s: s, sb: sb, tick: tick}
}

// --- idle_mesh_32x32: the same stepper used the opposite way ---------

const (
	idleRate  = 0.0005 // flits/node/cycle during an on phase
	idlePhase = 20000  // cycles per on phase and per off phase
)

func buildIdleMesh(r *run) *inst {
	topo := r.mesh(32, 32)
	s := r.newSim(topo, 1, r.stream(0), 512, 64, 16)
	sb := r.attachSB(s, core.Options{})
	inject := r.injector(s, r.minimal(topo), traffic.NewUniformRandom(topo.AliveRouters()), idleRate, r.stream(1))
	return &inst{s: s, sb: sb, tick: func() {
		if (s.Now/idlePhase)%2 == 0 {
			inject()
		}
	}}
}

// --- adaptive_faulty_16x16: routing lookups and hook dispatch --------

const (
	adaptiveFaults   = 40
	adaptiveTopoSeed = 7
	adaptiveRate     = 0.02 // packets/node/cycle of 5 flits
)

func adaptiveTopo() *topology.Topology {
	return topology.RandomIrregular(16, 16, topology.LinkFaults, adaptiveFaults, adaptiveTopoSeed)
}

func buildAdaptive(r *run) *inst {
	topo := r.sample(adaptiveTopo)
	s := r.newSim(topo, 1, r.stream(0), 2048, 32, 32)
	sb := r.attachSB(s, core.Options{})
	t0 := r.tr.start()
	c := adaptive.Attach(s)
	r.tr.stop(lAdaptiveAttach, t0)
	if r.tr != nil {
		inner := s.OutputOverride
		s.OutputOverride = func(p *network.Packet, at geom.NodeID) (geom.Direction, bool) {
			t0 := r.tr.start()
			d, ok := inner(p, at)
			r.tr.stop(lAdaptiveOverride, t0)
			return d, ok
		}
	}
	alive := topo.AliveRouters()
	rng := r.rng(1)
	return &inst{s: s, sb: sb, tick: func() {
		t0 := r.tr.start()
		for _, src := range alive {
			if rng.Float64() >= adaptiveRate {
				continue
			}
			dst := alive[rng.Intn(len(alive))]
			if dst == src || !c.Reachable(src, dst) {
				continue
			}
			t1 := r.tr.start()
			s.Enqueue(c.NewPacket(src, dst, 0, 5))
			r.tr.stop(lAdaptiveNewPacket, t1)
		}
		r.tr.stop(lTrafficTick, t0)
	}}
}

// --- churn_32x32: reconfiguration under load -------------------------

const (
	churnPeriod  = 800  // cycles between failures; one op
	churnRecover = 1200 // cycles until the failed element comes back
	churnRate    = 0.005
)

func buildChurn(r *run) *inst {
	topo := r.mesh(32, 32)
	s := r.newSim(topo, 1, r.stream(0), 4096, 64, 32)
	sb := r.attachSB(s, core.Options{})
	t0 := r.tr.start()
	mgr := reconfig.New(s)
	mgr.SetScheme(sb)
	r.tr.stop(lReconfigNew, t0)
	alg := r.alg(mgr.Algorithm())
	rng := r.rng(1)
	num := topo.NumNodes()
	submit := func(now int64, fail, recover reconfig.Event) {
		if _, err := mgr.Submit(fail); err != nil {
			r.fail("event at cycle %d: submit %v: %v", now, fail, err)
		}
		mgr.SubmitAt(now+churnRecover, recover)
	}
	in := &inst{s: s, sb: sb}
	in.tick = func() {
		now := s.Now
		if now%churnPeriod == churnPeriod/2 {
			t0 := r.tr.start()
			if rng.Intn(4) == 0 {
				alive := topo.AliveRouters()
				n := alive[rng.Intn(len(alive))]
				submit(now, reconfig.Event{Kind: reconfig.EvFailRouter, Node: n},
					reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n})
			} else {
				links := topo.AliveUndirectedLinks()
				l := links[rng.Intn(len(links))]
				submit(now, reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir},
					reconfig.Event{Kind: reconfig.EvRecoverLink, Node: l.From, Dir: l.Dir})
			}
			r.tr.stop(lReconfigSubmit, t0)
		}
		t0 := r.tr.start()
		mgr.Tick()
		r.tr.stop(lReconfigTick, t0)
		t0 = r.tr.start()
		for n := 0; n < num; n++ {
			src := geom.NodeID(n)
			if rng.Float64() >= churnRate || !topo.RouterAlive(src) {
				continue
			}
			dst := geom.NodeID(rng.Intn(num))
			if dst == src || !topo.RouterAlive(dst) {
				continue
			}
			if rt, ok := alg.Route(src, dst, rng); ok {
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, rt))
			} else {
				s.Drop()
			}
		}
		r.tr.stop(lTrafficTick, t0)
	}
	in.tables = mgr.TableStats
	return in
}

func runChurn(r *run) {
	var in *inst
	r.setup(func() { in = buildChurn(r) })
	base := in.tables()
	r.runBlocks(in, churnPeriod)
	ts := in.tables()
	ts.Hits, ts.Misses = ts.Hits-base.Hits, ts.Misses-base.Misses
	ts.Incremental, ts.Full = ts.Incremental-base.Incremental, ts.Full-base.Full
	ts.ColsRepaired, ts.CompileNs = ts.ColsRepaired-base.ColsRepaired, ts.CompileNs-base.CompileNs
	r.tables = &ts
}

// --- recovery_storm_8x8: the paper's mechanism under load ------------

const (
	stormFaults  = 25
	stormBurst   = 500  // cycles of injection per episode
	stormEpisode = 4000 // cycles per episode
	stormRate    = 0.25 // flits/node/cycle during the burst
)

// The storm's inputs are a table, not free draws from --seed: on most
// 25-link-fault topologies some episode eventually wedges (detection
// fires, resolution never completes; see README.md), the more readily
// the more deadlocks the topology forms, and a wedged instance must
// never be timed. stormTable holds eight topologies that form 1.5 to
// 4.6 deadlocks per episode and, for each, the traffic variants out of
// stormVariants that drain every one of stormMaxEpisodes episodes at
// this commit; TestStormTable re-derives it. --seed picks which
// variant each instance runs. The simulator is deterministic, so a
// listed pair drains on every run.
var stormTable = []struct {
	topoSeed int64
	drains   []int64
}{
	{4, []int64{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 15}},
	{13, []int64{0, 2, 3, 12}},
	{22, []int64{0, 1, 2, 3, 6, 7, 8, 9, 11, 12, 13, 14, 15}},
	{23, []int64{0, 1, 2, 3, 4, 7, 11, 13, 15}},
	{48, []int64{1, 2, 3, 4, 8, 10, 12, 13, 14, 15}},
	{55, []int64{1, 2, 3, 5, 7, 8, 9, 10, 11, 13, 14}},
	{57, []int64{0, 1, 3, 6, 11}},
	{59, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15}},
}

const (
	stormVariants    = 16
	stormMaxEpisodes = 64
)

// stormInstances is how many instances a repetition of ops episodes
// needs so that none runs more than stormMaxEpisodes.
func stormInstances(ops int) int {
	n := (ops + stormMaxEpisodes - 1) / stormMaxEpisodes
	if n < len(stormTable) {
		n = len(stormTable)
	}
	return n
}

// buildStorm builds instance i: the table's i-th topology (cyclically)
// under the draining variant the run seed picks.
func buildStorm(r *run, i int) *inst {
	row := stormTable[i%len(stormTable)]
	pick := uint64(r.stream(i)) % uint64(len(row.drains))
	return buildStormPair(r, row.topoSeed, row.drains[pick])
}

func stormTopo(seed int64) *topology.Topology {
	return topology.RandomIrregular(8, 8, topology.LinkFaults, stormFaults, seed)
}

func buildStormPair(r *run, topoSeed, variant int64) *inst {
	topo := r.sample(func() *topology.Topology { return stormTopo(topoSeed) })
	base := sweep.NewKey("bench-storm").Int64("topo", topoSeed).Int64("variant", variant).Seed()
	s := r.newSim(topo, 1, sweep.SubSeed(base, 0), 2048, 16, 64)
	sb := r.attachSB(s, core.Options{})
	inject := r.injector(s, r.minimal(topo), traffic.NewUniformRandom(topo.AliveRouters()), stormRate, sweep.SubSeed(base, 1))
	return &inst{s: s, sb: sb, tick: func() {
		if s.Now%stormEpisode < stormBurst {
			inject()
		}
	}}
}

func runStorm(r *run) {
	ins := make([]*inst, stormInstances(r.ops))
	r.setup(func() {
		for i := range ins {
			ins[i] = buildStorm(r, i)
		}
	})
	for e := 0; e < r.ops; e++ {
		r.unitStart(e)
		r.episode(ins[e%len(ins)], e)
	}
	r.closeAllocWindow()
	for _, in := range ins {
		r.finish(in)
	}
}

// episode runs one burst/drain episode: the op fails when the network
// has not emptied by the episode's end. The drain time is simulated
// cycles from the end of the burst to the first empty cycle.
func (r *run) episode(in *inst, e int) {
	s := in.s
	id := r.tr.open(lUnit, r.unitName(e))
	t0 := time.Now()
	r.advance(in, stormBurst)
	drained := -1
	for c := stormBurst; c < stormEpisode; c++ {
		if drained < 0 && s.InFlight() == 0 && s.QueuedPackets() == 0 {
			drained = c - stormBurst
		}
		r.advance(in, 1)
	}
	d := time.Since(t0).Nanoseconds()
	r.tr.close(id)
	r.wallNs += d
	r.unitNs = append(r.unitNs, d)
	r.routerCycles += stormEpisode * int64(s.Topo.AliveRouterCount())
	r.simCycles += stormEpisode
	r.attempted++

	t0 = time.Now()
	if left := s.InFlight() + s.QueuedPackets(); left != 0 {
		r.fail("episode %d: %d packets left at the episode's end", e, left)
	} else {
		if drained < 0 {
			drained = stormEpisode - stormBurst
		}
		r.drainCycles = append(r.drainCycles, float64(drained))
	}
	r.validate(in, fmt.Sprintf("episode %d", e))
	r.excludedNs += time.Since(t0).Nanoseconds()
}

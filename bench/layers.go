package main

import (
	"runtime"
	"time"

	"repro/internal/routing"
)

// perLayer lists every per-layer metric in report order, with its unit
// and the direction that counts as better; a name's prefix up to the
// first '.' is the module measured. A workload that does not exercise a
// layer reports 0 for that layer's metrics. BENCHMARK.json carries the
// same table.
var perLayer = []struct{ name, unit, better string }{
	{"topology.sample_us", "us", "lower"},
	{"topology.clone_us", "us", "lower"},
	{"routing.compile_cold_ms", "ms", "lower"},
	{"routing.cache_hit_us", "us", "lower"},
	{"routing.cache_hit_ratio", "ratio", "higher"},
	{"routing.table_mb", "MB", "lower"},
	{"routing.route_ns", "ns", "lower"},
	{"routing.recompile_us_per_event", "us", "lower"},
	{"routing.incremental_share", "ratio", "higher"},
	{"routing.cols_repaired_per_event", "count", "lower"},
	{"network.new_us", "us", "lower"},
	{"network.step_ns_per_cycle", "ns", "lower"},
	{"network.step_self_ns_per_cycle", "ns", "lower"},
	{"network.step_self_ns_per_router_cycle", "ns", "lower"},
	{"network.step_self_ns_per_hop", "ns", "lower"},
	{"network.dense_cycle_share", "ratio", "higher"},
	{"network.quiet_cycle_share", "ratio", "higher"},
	{"network.mode_switches", "count", "lower"},
	{"network.allocs_per_kcycle", "1/kcycle", "lower"},
	{"network.bytes_per_kcycle", "B/kcycle", "lower"},
	{"network.step_block_ms_p50", "ms", "lower"},
	{"network.step_block_ms_p99", "ms", "lower"},
	{"network.step_ns_per_cycle_shards2", "ns", "lower"},
	{"network.xfills_per_kcycle", "1/kcycle", "lower"},
	{"core.attach_us", "us", "lower"},
	{"core.hook_ns_per_cycle", "ns", "lower"},
	{"core.probes_per_kcycle", "1/kcycle", "lower"},
	{"core.recoveries", "count", "lower"},
	{"core.probe_return_ratio", "ratio", "higher"},
	{"core.drain_cycles_p50", "cycles", "lower"},
	{"core.drain_cycles_p99", "cycles", "lower"},
	{"escape.hook_ns_per_cycle", "ns", "lower"},
	{"escape.transfers", "count", "lower"},
	{"adaptive.override_ns_per_call", "ns", "lower"},
	{"adaptive.override_calls_per_cycle", "1/cycle", "lower"},
	{"adaptive.new_packet_ns", "ns", "lower"},
	{"traffic.tick_ns_per_cycle", "ns", "lower"},
	{"traffic.self_ns_per_offered_packet", "ns", "lower"},
	{"reconfig.tick_ns_per_cycle", "ns", "lower"},
	{"reconfig.submit_us_per_event", "us", "lower"},
	{"reconfig.table_hit_ratio", "ratio", "higher"},
	{"reconfig.events", "count", "higher"},
	{"reconfig.event_block_ms_p99", "ms", "lower"},
	{"sweep.overhead_us_per_cell", "us", "lower"},
	{"sweep.cache_put_us", "us", "lower"},
	{"sweep.cache_get_us", "us", "lower"},
	{"sweep.resume_s", "s", "lower"},
	{"stats.merge_us_per_cell", "us", "lower"},
	{"experiments.build_us_per_instance", "us", "lower"},
	{"experiments.encode_ms", "ms", "lower"},
	{"sim.latency_p50_cycles", "cycles", "lower"},
	{"sim.latency_p99_cycles", "cycles", "lower"},
	{"sim.max_latency_cycles", "cycles", "lower"},
	{"sim.delivered", "count", "higher"},
	{"sim.hop_moves", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.wall_spread_pct", "%", "lower"},
	{"bench.unit_ms_p50", "ms", "lower"},
	{"bench.unit_ms_phigh", "ms", "lower"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// layerMetrics derives the per-layer values this repetition can see:
// counters and ledgers always, span-derived host times only when traced.
func (r *run) layerMetrics() map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.extra {
		m[k] = v
	}
	cyc := float64(r.simCycles)
	kcyc := cyc / 1000
	c := r.counters
	m["network.dense_cycle_share"] = ratio(float64(c.DenseCycles), cyc)
	m["network.quiet_cycle_share"] = ratio(float64(c.QuietCycles), cyc)
	m["network.mode_switches"] = float64(c.DenseEnters + c.DenseExits)
	if w := float64(r.allocCycles) / 1000; w > 0 {
		m["network.allocs_per_kcycle"] = float64(r.alloc.Allocs) / w
		m["network.bytes_per_kcycle"] = float64(r.alloc.Bytes) / w
	}
	p := r.protocol
	m["core.probes_per_kcycle"] = ratio(float64(p.ProbesSent), kcyc)
	m["core.recoveries"] = float64(p.DeadlockRecoveries)
	m["core.probe_return_ratio"] = ratio(float64(p.ProbesReturned), float64(p.ProbesSent))
	drain := sortedCopy(r.drainCycles)
	m["core.drain_cycles_p50"] = percentile(drain, 50)
	m["core.drain_cycles_p99"] = percentile(drain, 99)
	m["escape.transfers"] = float64(p.EscapeTransfers)
	m["sim.max_latency_cycles"] = float64(r.maxLatency)
	m["sim.delivered"] = float64(r.delivered)
	m["sim.hop_moves"] = float64(r.hopMoves)
	units := sortedCopy(nsToMs(r.unitNs))
	m["bench.unit_ms_p50"] = percentile(units, 50)
	m["bench.unit_ms_phigh"] = percentile(units, highPercentile(len(units)))
	if ts := r.tables; ts != nil {
		ev := float64(r.attempted)
		m["reconfig.events"] = ev
		m["reconfig.event_block_ms_p99"] = percentile(units, 99)
		m["reconfig.table_hit_ratio"] = ratio(float64(ts.Hits), float64(ts.Hits+ts.Misses))
		m["routing.recompile_us_per_event"] = ratio(float64(ts.CompileNs)/1e3, ev)
		m["routing.incremental_share"] = ratio(float64(ts.Incremental), float64(ts.Incremental+ts.Full))
		m["routing.cols_repaired_per_event"] = ratio(float64(ts.ColsRepaired), ev)
	}
	if r.tr == nil {
		return m
	}

	t := &r.tr.total
	mean := func(l layer) float64 { return ratio(float64(t[l].dur), float64(t[l].calls)) }
	m["topology.sample_us"] = mean(lTopoSample) / 1e3
	m["topology.clone_us"] = mean(lTopoClone) / 1e3
	m["routing.route_ns"] = mean(lRoute)
	m["network.new_us"] = mean(lNetworkNew) / 1e3
	step := float64(t[lStep].dur)
	self := step - float64(t[lCoreHook].dur+t[lEscapeHook].dur+t[lAdaptiveOverride].dur)
	m["network.step_ns_per_cycle"] = ratio(step, cyc)
	m["network.step_self_ns_per_cycle"] = ratio(self, cyc)
	m["network.step_self_ns_per_router_cycle"] = ratio(self, float64(r.routerCycles))
	m["network.step_self_ns_per_hop"] = ratio(self, float64(r.hopMoves))
	var stepMs []float64
	for _, s := range r.tr.spans {
		if s.Name == layerNames[lStep] {
			stepMs = append(stepMs, float64(s.End-s.Start)/1e6)
		}
	}
	stepMs = sortedCopy(stepMs)
	m["network.step_block_ms_p50"] = percentile(stepMs, 50)
	m["network.step_block_ms_p99"] = percentile(stepMs, 99)
	m["core.attach_us"] = mean(lCoreAttach) / 1e3
	m["core.hook_ns_per_cycle"] = ratio(float64(t[lCoreHook].dur), cyc)
	m["escape.hook_ns_per_cycle"] = ratio(float64(t[lEscapeHook].dur), cyc)
	m["adaptive.override_ns_per_call"] = mean(lAdaptiveOverride)
	m["adaptive.override_calls_per_cycle"] = ratio(float64(t[lAdaptiveOverride].calls), cyc)
	m["adaptive.new_packet_ns"] = mean(lAdaptiveNewPacket)
	tick := float64(t[lTrafficTick].dur)
	m["traffic.tick_ns_per_cycle"] = ratio(tick, cyc)
	m["traffic.self_ns_per_offered_packet"] = ratio(tick-float64(t[lRoute].dur+t[lAdaptiveNewPacket].dur), float64(r.offered))
	m["reconfig.tick_ns_per_cycle"] = ratio(float64(t[lReconfigTick].dur), cyc)
	m["reconfig.submit_us_per_event"] = mean(lReconfigSubmit) / 1e3
	if r.w.unit == "cell" {
		n := float64(r.attempted)
		m["sweep.overhead_us_per_cell"] = float64(selfTimes(r.tr.spans)[layerNames[lSweepRun]]) / 1e3 / n
		m["stats.merge_us_per_cell"] = float64(t[lStatsMerge].dur) / 1e3 / n
	}
	m["experiments.build_us_per_instance"] = mean(lExpBuild) / 1e3
	m["experiments.encode_ms"] = float64(t[lEncode].dur) / 1e6
	m["sim.latency_p50_cycles"] = r.lat.Percentile(50)
	m["sim.latency_p99_cycles"] = r.lat.Percentile(99)
	return m
}

// probeTables times a cold compile and a cache hit of the routing
// tables on the workload's topology, three times, and leaves the
// process-wide cache empty.
func (r *run) probeTables() {
	topo := r.w.probeTopo()
	compile := func() {
		routing.MinimalFor(topo)
		if r.w.updown { // every sampled sweep topology compiles both tables
			routing.UpDownFor(topo, routing.RootMedian)
		}
	}
	var cold, hit []float64
	for i := 0; i < 3; i++ {
		routing.ResetTableCache()
		t0 := time.Now()
		compile()
		cold = append(cold, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		compile()
		hit = append(hit, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	routing.ResetTableCache()
	r.extra["routing.compile_cold_ms"] = median(cold)
	r.extra["routing.cache_hit_us"] = median(hit)
}

// sideBlocks is the length of the sharded side pass in blocks: the
// first 40 k cycles of sat_mesh_16x16, or the whole run if shorter.
func sideBlocks(ops int) int {
	if ops < 40 {
		return ops
	}
	return 40
}

// shardedSidePass re-runs the head of sat_mesh_16x16 on two shards,
// requires Stats equal to the one-shard run at the same cycle, and
// reports the seam-synchronized stepper's cost. It keeps that path in
// the ledger without putting a two-thread run into an end-to-end
// number; a one-CPU host skips it.
func (r *run) shardedSidePass() {
	if runtime.NumCPU() < 2 {
		return
	}
	side := &run{w: r.w, seed: r.seed, extra: map[string]float64{}}
	in := buildSat(side, 2)
	n := sideBlocks(r.ops) * blockCycles
	var stepNs int64
	for c := 0; c < n; c++ {
		in.tick()
		t0 := time.Now()
		in.s.Step()
		stepNs += time.Since(t0).Nanoseconds()
	}
	if in.s.Stats != r.sideStats {
		r.fail("shards=2 diverged from shards=1 at cycle %d\nshards=2: %+v\nshards=1: %+v", n, in.s.Stats, r.sideStats)
	}
	r.extra["network.step_ns_per_cycle_shards2"] = float64(stepNs) / float64(n)
	r.extra["network.xfills_per_kcycle"] = float64(in.s.StepperCounters().XFills) / (float64(n) / 1000)
}

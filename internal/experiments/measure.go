package experiments

import (
	"math/rand"

	"repro/internal/energy"
	"repro/internal/network"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// RunMetrics is the outcome of one warmup+measure simulation run.
type RunMetrics struct {
	// AvgLatency is the mean total packet latency (cycles) over packets
	// delivered in the measurement window; MaxLatency is the cumulative
	// maximum since cycle 0, warmup included.
	AvgLatency float64
	MaxLatency float64
	// AcceptedFlits is the delivered throughput in flits/node/cycle over
	// the measurement window (the saturation-throughput metric when the
	// offered load exceeds capacity).
	AcceptedFlits float64
	// Delivered is the packet count in the measurement window.
	Delivered int64
	// Stats is the final cumulative simulator state (for energy and
	// protocol counters).
	Stats network.Stats
	// Cycles is the total simulated horizon (warmup + measure).
	Cycles int64
}

// measure drives the instance with the given injector for
// p.WarmupCycles + p.MeasureCycles and reports window metrics.
func measure(p Params, inst *Instance, inj interface{ Tick(*network.Sim) }) RunMetrics {
	p = p.withDefaults()
	s := inst.Sim
	for c := 0; c < p.WarmupCycles; c++ {
		inj.Tick(s)
		s.Step()
	}
	base := s.Stats
	baseNow := s.Now
	for c := 0; c < p.MeasureCycles; c++ {
		inj.Tick(s)
		s.Step()
	}
	cur := s.Stats
	window := cur
	window.Delivered -= base.Delivered
	window.SumLatency -= base.SumLatency
	window.DeliveredFlits -= base.DeliveredFlits

	m := RunMetrics{
		MaxLatency: float64(cur.MaxLatency),
		Delivered:  window.Delivered,
		Stats:      cur,
		Cycles:     s.Now,
	}
	if window.Delivered > 0 {
		m.AvgLatency = float64(window.SumLatency) / float64(window.Delivered)
	}
	nodes := s.Topo.AliveRouterCount()
	if nodes > 0 && s.Now > baseNow {
		m.AcceptedFlits = float64(window.DeliveredFlits) / float64(s.Now-baseNow) / float64(nodes)
	}
	return m
}

// synthetic builds sch over topo and measures it under Bernoulli traffic
// of the named pattern at rate. The simulator and the injector draw from
// streams stream and stream+1 of the job seed.
func (p Params) synthetic(topo *topology.Topology, sch Scheme, pattern string, rate float64, seed int64, stream int) (*Instance, RunMetrics) {
	inst := p.Build(topo, sch, sweep.SubSeed(seed, stream))
	inj := inst.Injector(inst.Pattern(pattern), rate, sweep.SubSeed(seed, stream+1))
	return inst, measure(p, inst, inj)
}

// application builds sch over topo and runs app to completion (or its
// horizon) on it, drawing from streams 2·sch and 2·sch+1 of the job seed.
func (p Params) application(topo *topology.Topology, sch Scheme, app traffic.AppProfile, seed int64) (*Instance, traffic.Result) {
	inst := p.Build(topo, sch, sweep.SubSeed(seed, 2*int(sch)))
	run := traffic.NewAppRun(inst.Sim, inst.Alg, app,
		rand.New(rand.NewSource(sweep.SubSeed(seed, 2*int(sch)+1))))
	return inst, run.Run(inst.Sim, appHorizon(app))
}

// appHorizon bounds an application run generously relative to its work.
func appHorizon(app traffic.AppProfile) int {
	h := app.WorkPackets * 300
	if h < 50000 {
		h = 50000
	}
	return h
}

// energyOver is the instance's network energy over the given horizon,
// its scheme's extra buffers included.
func (inst *Instance) energyOver(cycles int64) energy.Breakdown {
	extra := energy.SchemeOverheadBuffers(inst.Sim, inst.Scheme.EnergyKey())
	return energy.Default32nm().Compute(inst.Sim, extra, cycles)
}

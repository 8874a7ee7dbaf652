package experiments

import (
	"math/rand"

	"repro/internal/energy"
	"repro/internal/network"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Source is what Run ticks once before each warmup and measure cycle:
// a traffic injector, or any per-cycle work such as a failure schedule.
type Source interface{ Tick(*network.Sim) }

// SourceFunc adapts a per-cycle function to a Source.
type SourceFunc func(*network.Sim)

// Tick calls f(s).
func (f SourceFunc) Tick(s *network.Sim) { f(s) }

// Phases describes one run. Warmup and then Measure cycles tick the
// source; the window statistics cover Measure. Drain then steps at most
// Drain cycles with the source stopped, ending early once no packet is
// in flight or queued. Stop, when set, is checked before every cycle and
// ends the whole run when it returns true.
type Phases struct {
	Warmup, Measure, Drain int
	Stop                   func(*network.Sim) bool
}

// RunMetrics is the outcome of one Run.
type RunMetrics struct {
	// AvgLatency is the mean total packet latency (cycles) over packets
	// delivered in the measurement window; MaxLatency is the cumulative
	// maximum since cycle 0, warmup and drain included.
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
	// Cycles is the simulator clock when the run ended.
	Cycles int64
	// DrainCycles is how many cycles the drain phase stepped, and Left
	// the packets still in flight or queued when the run ended.
	DrainCycles, Left int64
}

// Run drives s through ph, ticking src (nil for none) in the warmup
// and measure phases, and reports the measure window and the drain.
func Run(s *network.Sim, src Source, ph Phases) RunMetrics {
	stopped := false
	// phase steps up to n cycles, ticking src outside the drain, and
	// returns how many it stepped.
	phase := func(n int, drain bool) int64 {
		start := s.Now
		for i := 0; i < n && !stopped; i++ {
			if stopped = ph.Stop != nil && ph.Stop(s); stopped {
				break
			}
			if drain && s.InFlight()+s.QueuedPackets() == 0 {
				break
			}
			if src != nil && !drain {
				src.Tick(s)
			}
			s.Step()
		}
		return s.Now - start
	}
	phase(ph.Warmup, false)
	base := s.Stats
	window := phase(ph.Measure, false)
	win := s.Stats
	win.Delivered -= base.Delivered
	win.SumLatency -= base.SumLatency
	win.DeliveredFlits -= base.DeliveredFlits

	m := RunMetrics{Delivered: win.Delivered}
	if win.Delivered > 0 {
		m.AvgLatency = float64(win.SumLatency) / float64(win.Delivered)
	}
	if nodes := s.Topo.AliveRouterCount(); nodes > 0 && window > 0 {
		m.AcceptedFlits = float64(win.DeliveredFlits) / float64(window) / float64(nodes)
	}
	m.DrainCycles = phase(ph.Drain, true)
	m.Stats = s.Stats
	m.MaxLatency = float64(m.Stats.MaxLatency)
	m.Cycles = s.Now
	m.Left = s.InFlight() + s.QueuedPackets()
	return m
}

// synthetic builds sch over topo and measures it under Bernoulli traffic
// of the named pattern at rate. The simulator and the injector draw from
// streams stream and stream+1 of the job seed.
func (p Params) synthetic(topo *topology.Topology, sch Scheme, pattern string, rate float64, seed int64, stream int) (*Instance, RunMetrics) {
	p = p.withDefaults()
	inst := p.Build(topo, sch, sweep.SubSeed(seed, stream))
	inj := inst.Injector(inst.Pattern(pattern), rate, sweep.SubSeed(seed, stream+1))
	return inst, Run(inst.Sim, inj, Phases{Warmup: p.WarmupCycles, Measure: p.MeasureCycles})
}

// application builds sch over topo and runs app to completion (or its
// horizon) on it, drawing from streams 2·sch and 2·sch+1 of the job seed.
func (p Params) application(topo *topology.Topology, sch Scheme, app traffic.AppProfile, seed int64) (*Instance, traffic.Result) {
	inst := p.Build(topo, sch, sweep.SubSeed(seed, 2*int(sch)))
	run := traffic.NewAppRun(inst.Sim, inst.Alg, app,
		rand.New(rand.NewSource(sweep.SubSeed(seed, 2*int(sch)+1))))
	Run(inst.Sim, run, Phases{Measure: appHorizon(app), Stop: run.Done})
	return inst, run.Result(inst.Sim)
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

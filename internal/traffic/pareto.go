package traffic

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// ParetoSample draws from a Pareto distribution with shape alpha and
// scale (minimum) xm: P[X > t] = (xm/t)^alpha for t >= xm. For
// 1 < alpha < 2 the distribution has finite mean alpha*xm/(alpha-1) but
// infinite variance — the heavy-tailed on/off periods whose aggregate
// produces self-similar (long-range-dependent) traffic.
func ParetoSample(rng *rand.Rand, alpha, xm float64) float64 {
	// Inverse-CDF: X = xm * U^(-1/alpha), U uniform in (0, 1].
	u := 1 - rng.Float64() // (0, 1]
	return xm * math.Pow(u, -1/alpha)
}

// ParetoMean returns the mean of the Pareto(alpha, xm) distribution
// (infinite for alpha <= 1).
func ParetoMean(alpha, xm float64) float64 {
	if alpha <= 1 {
		return math.Inf(1)
	}
	return alpha * xm / (alpha - 1)
}

// ParetoOnOff drives bursty open-loop traffic: each source node
// alternates ON and OFF periods with Pareto-distributed lengths,
// injecting at PeakRate (flits/node/cycle) only while ON. With shape
// parameters in (1, 2) the period lengths are heavy-tailed and the
// aggregate process is self-similar — the canonical model for measured
// LAN/datacenter burstiness (Willinger et al.), and a much harsher
// arrival process for recovery schemes than Bernoulli injection at the
// same mean rate: deep multi-thousand-cycle bursts pile whole windows of
// packets onto whatever dependency cycles exist.
//
// All stochastic choices draw from the stream taken over from the rng
// passed at construction (see NewInjector), in deterministic per-node
// order, so identically seeded runs are byte-identical.
type ParetoOnOff struct {
	inj *Injector
	// PeakRate is the offered load in flits/node/cycle during ON periods.
	PeakRate float64
	// AlphaOn/AlphaOff are the Pareto shapes of the ON and OFF period
	// lengths; MinOn/MinOff the minimum period lengths in cycles.
	AlphaOn, AlphaOff float64
	MinOn, MinOff     float64

	// Per-node burst state: whether the node is in an ON period and how
	// many whole cycles of it remain. Initialized lazily on the first
	// Tick (after the caller has finished adjusting the shape fields).
	on        []bool
	remaining []int64
	started   bool
}

// NewParetoOnOff builds the process over the given source nodes. alg
// routes packets, p picks destinations, peakRate is the ON-period
// offered load. Shapes default to the classic self-similar setting
// alphaOn=1.4, alphaOff=1.2 (Hurst ≈ 0.8); minimum periods default to
// 20-cycle bursts separated by 40-cycle gaps.
func NewParetoOnOff(sources []geom.NodeID, alg routing.Algorithm, p Pattern, peakRate float64, rng *rand.Rand) *ParetoOnOff {
	po := &ParetoOnOff{
		inj:       NewInjector(sources, alg, p, peakRate, rng),
		PeakRate:  peakRate,
		AlphaOn:   1.4,
		AlphaOff:  1.2,
		MinOn:     20,
		MinOff:    40,
		on:        make([]bool, len(sources)),
		remaining: make([]int64, len(sources)),
	}
	return po
}

// Injector exposes the underlying injector for packet-mix configuration
// (CtrlFraction, vnets).
func (po *ParetoOnOff) Injector() *Injector { return po.inj }

// MeanRate returns the long-run offered load in flits/node/cycle:
// PeakRate × E[on] / (E[on] + E[off]).
func (po *ParetoOnOff) MeanRate() float64 {
	eon := ParetoMean(po.AlphaOn, po.MinOn)
	eoff := ParetoMean(po.AlphaOff, po.MinOff)
	if math.IsInf(eon, 1) || math.IsInf(eoff, 1) {
		return 0
	}
	return po.PeakRate * eon / (eon + eoff)
}

// DutyCycle returns E[on] / (E[on] + E[off]).
func (po *ParetoOnOff) DutyCycle() float64 {
	eon := ParetoMean(po.AlphaOn, po.MinOn)
	eoff := ParetoMean(po.AlphaOff, po.MinOff)
	return eon / (eon + eoff)
}

// start decorrelates the nodes' initial phases: each node begins ON with
// probability DutyCycle and part-way through its first period, so the
// fleet does not open with one synchronized burst (which would both skew
// the measured mean rate and phase-lock every node's bursts).
func (po *ParetoOnOff) start() {
	po.started = true
	in := po.inj
	duty := po.DutyCycle()
	for i := range in.sources {
		po.on[i] = in.rng.Float64() < duty
		alpha, xm := po.AlphaOff, po.MinOff
		if po.on[i] {
			alpha, xm = po.AlphaOn, po.MinOn
		}
		period := int64(math.Ceil(ParetoSample(in.rng, alpha, xm)))
		po.remaining[i] = 1 + int64(in.rng.Float64()*float64(period))
	}
}

// Tick advances every node's on/off process by one cycle and offers
// traffic from the nodes currently in an ON period.
func (po *ParetoOnOff) Tick(s *network.Sim) {
	if !po.started {
		po.start()
	}
	in := po.inj
	pPkt := po.PeakRate / in.meanLen()
	for i, src := range in.sources {
		if po.remaining[i] <= 0 {
			// Period expired: toggle state and draw the next length.
			po.on[i] = !po.on[i]
			alpha, xm := po.AlphaOff, po.MinOff
			if po.on[i] {
				alpha, xm = po.AlphaOn, po.MinOn
			}
			po.remaining[i] = int64(math.Ceil(ParetoSample(in.rng, alpha, xm)))
		}
		po.remaining[i]--
		if po.on[i] {
			in.offer(s, src, pPkt)
		}
	}
}

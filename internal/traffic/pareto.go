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

// The on/off period model: the classic self-similar setting
// alphaOn = 1.4, alphaOff = 1.2 (Hurst ≈ 0.8), with 20-cycle minimum
// bursts separated by 40-cycle minimum gaps.
const (
	paretoAlphaOn, paretoMinOn   = 1.4, 20
	paretoAlphaOff, paretoMinOff = 1.2, 40
)

// ParetoOnOff drives bursty open-loop traffic: each source node
// alternates ON and OFF periods with Pareto-distributed lengths,
// injecting at the peak rate (flits/node/cycle) only while ON. With shape
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
	// Per-node burst state: whether the node is in an ON period and how
	// many whole cycles of it remain.
	on        []bool
	remaining []int64
}

// NewParetoOnOff builds the process over the given source nodes. alg
// routes packets, p picks destinations, peakRate is the ON-period
// offered load.
func NewParetoOnOff(sources []geom.NodeID, alg routing.Algorithm, p Pattern, peakRate float64, rng *rand.Rand) *ParetoOnOff {
	po := &ParetoOnOff{
		inj:       NewInjector(sources, alg, p, peakRate, rng),
		on:        make([]bool, len(sources)),
		remaining: make([]int64, len(sources)),
	}
	po.drawPhases()
	return po
}

// MeanRate returns the long-run offered load in flits/node/cycle: the
// peak rate × E[on] / (E[on] + E[off]).
func (po *ParetoOnOff) MeanRate() float64 {
	eon, eoff := periodMeans()
	return po.inj.RateFlits * eon / (eon + eoff)
}

// DutyCycle returns E[on] / (E[on] + E[off]).
func (po *ParetoOnOff) DutyCycle() float64 {
	eon, eoff := periodMeans()
	return eon / (eon + eoff)
}

// periodMeans returns the mean ON and OFF period lengths.
func periodMeans() (eon, eoff float64) {
	return ParetoMean(paretoAlphaOn, paretoMinOn), ParetoMean(paretoAlphaOff, paretoMinOff)
}

// paretoPeriod draws the length of a node's next ON or OFF period.
func paretoPeriod(rng *rand.Rand, on bool) int64 {
	if on {
		return int64(math.Ceil(ParetoSample(rng, paretoAlphaOn, paretoMinOn)))
	}
	return int64(math.Ceil(ParetoSample(rng, paretoAlphaOff, paretoMinOff)))
}

// drawPhases decorrelates the nodes' initial phases: each node begins ON
// with probability DutyCycle and part-way through its first period, so
// the fleet does not open with one synchronized burst (which would both
// skew the measured mean rate and phase-lock every node's bursts).
func (po *ParetoOnOff) drawPhases() {
	in := po.inj
	duty := po.DutyCycle()
	for i := range in.sources {
		po.on[i] = in.rng.Float64() < duty
		n := paretoPeriod(in.rng, po.on[i]) // the period draw precedes the phase draw
		po.remaining[i] = 1 + int64(in.rng.Float64()*float64(n))
	}
}

// Tick advances every node's on/off process by one cycle and offers
// traffic from the nodes currently in an ON period.
func (po *ParetoOnOff) Tick(s *network.Sim) {
	in := po.inj
	pPkt := in.RateFlits / in.meanLen()
	for i, src := range in.sources {
		if po.remaining[i] <= 0 {
			// Period expired: toggle state and draw the next length.
			po.on[i] = !po.on[i]
			po.remaining[i] = paretoPeriod(in.rng, po.on[i])
		}
		po.remaining[i]--
		if po.on[i] {
			in.offer(s, src, pPkt)
		}
	}
}

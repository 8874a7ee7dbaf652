// Package traffic generates network workloads: the synthetic patterns of
// the paper's evaluation (uniform random and bit-complement with a mix of
// 1-flit control and 5-flit data packets, Table II), auxiliary patterns
// (transpose, hotspot), and parameterized application profiles standing
// in for the PARSEC and Rodinia workloads (see DESIGN.md §4 for the
// substitution rationale).
package traffic

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// Pattern maps a source node to a destination.
type Pattern interface {
	Name() string
	// Dest picks a destination for a packet from src; it may equal src
	// (callers usually skip self-traffic) and need not be reachable.
	Dest(src geom.NodeID, rng *rand.Rand) geom.NodeID
}

// UniformRandom picks any alive router uniformly.
type UniformRandom struct {
	nodes []geom.NodeID
}

// NewUniformRandom builds the pattern over the given candidate
// destinations (normally topo.AliveRouters()).
func NewUniformRandom(nodes []geom.NodeID) *UniformRandom {
	if len(nodes) == 0 {
		panic("traffic: uniform random needs at least one destination")
	}
	return &UniformRandom{nodes: nodes}
}

// Name implements Pattern.
func (u *UniformRandom) Name() string { return "uniform_random" }

// Dest implements Pattern.
func (u *UniformRandom) Dest(_ geom.NodeID, rng *rand.Rand) geom.NodeID {
	return u.nodes[rng.Intn(len(u.nodes))]
}

// BitComplement sends from (x, y) to (W−1−x, H−1−y).
type BitComplement struct {
	Width, Height int
}

// Name implements Pattern.
func (b BitComplement) Name() string { return "bit_complement" }

// Dest implements Pattern.
func (b BitComplement) Dest(src geom.NodeID, _ *rand.Rand) geom.NodeID {
	c := src.CoordOf(b.Width)
	return geom.Coord{X: b.Width - 1 - c.X, Y: b.Height - 1 - c.Y}.IDOf(b.Width)
}

// Transpose sends from (x, y) to (y, x); only defined on square meshes.
type Transpose struct {
	Width int
}

// Name implements Pattern.
func (t Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (t Transpose) Dest(src geom.NodeID, _ *rand.Rand) geom.NodeID {
	c := src.CoordOf(t.Width)
	return geom.Coord{X: c.Y, Y: c.X}.IDOf(t.Width)
}

// Hotspot sends a fraction of traffic to a fixed node (e.g. a memory
// controller) and the rest uniformly.
type Hotspot struct {
	Spot     geom.NodeID
	Fraction float64 // probability a packet targets Spot
	Uniform  *UniformRandom
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h Hotspot) Dest(src geom.NodeID, rng *rand.Rand) geom.NodeID {
	if rng.Float64() < h.Fraction {
		return h.Spot
	}
	return h.Uniform.Dest(src, rng)
}

// Bernoulli is a success probability p compiled for math/rand's value
// stream: a trial reports exactly what `rng.Float64() < p` would and
// consumes the same values, without the float (Stream.Next runs it).
// Float64 is float64(Int63())/(1<<63), resampled when that rounds up to
// 1 (the top 512 integers); the quotient is monotone in the drawn
// integer, so the comparison is `Int63() < t` for one threshold t. The
// zero value is p = 0 (never hits).
type Bernoulli struct{ t uint64 }

// resampleFrom is the least k for which float64(k)/(1<<63) == 1, the
// draws Float64 discards.
const resampleFrom = 1<<63 - 512

// NewBernoulli compiles p. Any float64 is accepted: p <= 0 and NaN never
// hit, p >= 1 always hits.
func NewBernoulli(p float64) Bernoulli {
	// Least k in [0, 1<<63] that fails the float test itself, by bisection
	// (the test holds below t and fails from t on).
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Bernoulli{lo}
}

// Injector drives Bernoulli open-loop traffic into a simulator: each
// alive node offers packets at the configured flit rate, with the
// control/data mix of Table II.
type Injector struct {
	// Topo-derived state.
	sources []geom.NodeID
	router  routing.Algorithm
	pattern Pattern
	// st is the stream taken over from the constructor's rng; rng draws
	// from it, and Tick scans it for injection hits.
	st  *Stream
	rng *rand.Rand
	// routeBuf is the scratch the per-packet route is appended into
	// (recycled: the target sim copies each route into its packet).
	routeBuf routing.Route
	// hit is the per-node injection test compiled for probability hitP;
	// bernoulli re-derives it when the rate or the mix (public, mutable
	// fields) moved the probability.
	hit  Bernoulli
	hitP float64

	// RateFlits is the offered load in flits/node/cycle.
	RateFlits float64
	// CtrlFraction is the fraction of packets that are 1-flit control
	// packets; the rest are data packets of network.VCDepth flits, a
	// cut-through packet that fills one VC. Default 0.5.
	CtrlFraction float64
	// CtrlVnet and DataVnet are the vnets used by each class
	// (defaults 0 and 2, modeling request and response classes).
	CtrlVnet, DataVnet int
}

// NewInjector builds an injector. sources are the nodes that inject
// (normally the alive routers); alg computes a route per packet. The
// injector takes rng over (NewStream): rng must come from rand.NewSource,
// and the injector's draws continue its stream, but rng itself is never
// drawn from again, so nothing else should hold it expecting to share
// that stream.
func NewInjector(sources []geom.NodeID, alg routing.Algorithm, p Pattern, rateFlits float64, rng *rand.Rand) *Injector {
	st := NewStream(rng)
	return &Injector{
		sources:      sources,
		router:       alg,
		pattern:      p,
		st:           st,
		rng:          st.Rand(),
		RateFlits:    rateFlits,
		CtrlFraction: 0.5,
		CtrlVnet:     0,
		DataVnet:     2,
	}
}

// meanLen returns the expected packet length under the current mix.
func (in *Injector) meanLen() float64 {
	return in.CtrlFraction*1 + (1-in.CtrlFraction)*network.VCDepth
}

// Tick offers one cycle's worth of traffic to s. Unreachable destinations
// are dropped at the source, per the paper's methodology.
func (in *Injector) Tick(s *network.Sim) {
	hit := in.bernoulli(in.RateFlits / in.meanLen())
	n := len(in.sources)
	for i := in.st.Next(hit, 0, n); i < n; i = in.st.Next(hit, i+1, n) {
		in.emit(s, in.sources[i])
	}
}

// bernoulli returns the injection test for per-node probability p.
func (in *Injector) bernoulli(p float64) Bernoulli {
	if p != in.hitP {
		in.hit, in.hitP = NewBernoulli(p), p
	}
	return in.hit
}

// offer makes one node's injection decision for this cycle: with
// probability pPkt it emits a packet. The bursty arrival processes
// (ParetoOnOff) use this with per-node gating.
func (in *Injector) offer(s *network.Sim, src geom.NodeID, pPkt float64) {
	if in.st.Next(in.bernoulli(pPkt), 0, 1) == 0 {
		in.emit(s, src)
	}
}

// emit picks a destination for src from the pattern, routes, and
// enqueues a packet of the configured control/data mix. It returns the
// packet, or nil when src drew itself or the destination is unreachable
// (dropped at the source).
func (in *Injector) emit(s *network.Sim, src geom.NodeID) *network.Packet {
	dst := in.pattern.Dest(src, in.rng)
	if dst == src {
		return nil
	}
	// Routes are built in a reusable scratch buffer: NewPacket copies
	// them (into a recycled packet's own buffer under pooling), so
	// injection allocates nothing in steady state.
	route, ok := routing.AppendRoute(in.router, in.routeBuf[:0], src, dst, in.rng)
	if !ok {
		s.Drop()
		return nil
	}
	in.routeBuf = route[:0]
	vnet, ln := in.CtrlVnet, 1
	if in.rng.Float64() >= in.CtrlFraction {
		vnet, ln = in.DataVnet, network.VCDepth
	}
	p := s.NewPacket(src, dst, vnet, ln, route)
	s.Enqueue(p)
	return p
}

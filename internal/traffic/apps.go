package traffic

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// AppProfile is a synthetic stand-in for a full-system application trace
// (PARSEC 2.0 / Rodinia in the paper). The parameters encode the
// qualitative properties the paper reports: PARSEC workloads inject an
// order of magnitude below network saturation due to high L1 hit rates;
// Hadoop has heavy collective (hotspot) traffic that saturates every
// design early; BPlus and srad are bandwidth-hungry. Runtime is measured
// as cycles to deliver a fixed amount of work, throughput as delivered
// packets per cycle.
type AppProfile struct {
	Name string
	// RateFlits is the per-node offered load in flits/node/cycle during
	// compute phases.
	RateFlits float64
	// HotspotFraction routes this fraction of packets to a fixed node
	// (memory-controller-style collectives).
	HotspotFraction float64
	// BurstLen and IdleLen alternate: BurstLen cycles at RateFlits, then
	// IdleLen cycles silent, modeling phase behaviour. IdleLen 0 means a
	// steady stream.
	BurstLen, IdleLen int
	// CtrlFraction is the 1-flit (request/coherence) packet share.
	CtrlFraction float64
	// WorkPackets is the fixed work per run: the run completes when this
	// many packets have been delivered.
	WorkPackets int
	// OutstandingWindow, when positive, makes the run closed-loop: each
	// node keeps at most this many requests in flight (an MSHR-style
	// window), so network latency throttles issue rate — the coupling
	// through which path stretch becomes application runtime, as in the
	// paper's full-system PARSEC runs. Zero keeps the open-loop model.
	OutstandingWindow int
	// ThinkTime is the compute delay (cycles) between a request's
	// completion and the node's next issue in closed-loop mode: runtime
	// per request ≈ ThinkTime + network round trip, so the network's
	// latency share is ThinkTime-controlled.
	ThinkTime int
}

// Rodinia returns the five Rodinia profiles used in Fig. 12.
func Rodinia() []AppProfile {
	return []AppProfile{
		// Hadoop: heavy collective traffic that saturates all designs
		// early (Fig. 12 shows no scheme differentiates on it).
		{Name: "Hadoop", RateFlits: 0.40, HotspotFraction: 0.5, BurstLen: 400, IdleLen: 0, CtrlFraction: 0.3, WorkPackets: 3000},
		// BPlus: bandwidth-hungry streaming.
		{Name: "BPlus", RateFlits: 0.20, HotspotFraction: 0.1, BurstLen: 300, IdleLen: 100, CtrlFraction: 0.4, WorkPackets: 2500},
		// kmeans: moderate, bursty.
		{Name: "kmeans", RateFlits: 0.12, HotspotFraction: 0.1, BurstLen: 200, IdleLen: 200, CtrlFraction: 0.5, WorkPackets: 2000},
		// srad: bandwidth-hungry stencil.
		{Name: "srad", RateFlits: 0.18, HotspotFraction: 0.05, BurstLen: 300, IdleLen: 100, CtrlFraction: 0.4, WorkPackets: 2500},
		// BFS: irregular, lighter.
		{Name: "BFS", RateFlits: 0.08, HotspotFraction: 0.15, BurstLen: 150, IdleLen: 250, CtrlFraction: 0.6, WorkPackets: 1500},
	}
}

// Parsec returns PARSEC-like profiles for Fig. 13: low injection rates
// (an order of magnitude under saturation) with coherence-style control
// traffic.
func Parsec() []AppProfile {
	return []AppProfile{
		{Name: "blackscholes", RateFlits: 0.010, HotspotFraction: 0.2, BurstLen: 500, IdleLen: 100, CtrlFraction: 0.6, WorkPackets: 1200, OutstandingWindow: 1, ThinkTime: 120},
		{Name: "canneal", RateFlits: 0.025, HotspotFraction: 0.2, BurstLen: 400, IdleLen: 150, CtrlFraction: 0.6, WorkPackets: 1500, OutstandingWindow: 1, ThinkTime: 45},
		{Name: "fluidanimate", RateFlits: 0.015, HotspotFraction: 0.15, BurstLen: 400, IdleLen: 200, CtrlFraction: 0.6, WorkPackets: 1200, OutstandingWindow: 1, ThinkTime: 75},
		{Name: "swaptions", RateFlits: 0.008, HotspotFraction: 0.1, BurstLen: 600, IdleLen: 100, CtrlFraction: 0.6, WorkPackets: 1000, OutstandingWindow: 1, ThinkTime: 160},
	}
}

// AppRun is the source of one application profile: Tick offers its
// traffic, Done reports its work delivered, and Result sums up the run
// since NewAppRun.
type AppRun struct {
	Profile AppProfile
	inj     *Injector
	phase   int // cycle counter within the burst/idle period
	// start is the simulator clock, and delivered and offered its
	// packet counters, when the run began.
	start, delivered, offered int64
	// outstanding tracks each node's in-flight requests in closed-loop
	// mode by packet id (packets are pool-recycled at delivery, so
	// holding *Packet across cycles is forbidden); doneAt latches each
	// tracked request's delivery cycle via an OnDeliver chain, -1 while
	// in flight. nextIssueAt is the earliest cycle a node may issue
	// again (think time after a completion).
	outstanding map[geom.NodeID][]int64
	doneAt      map[int64]int64
	hooked      bool
	nextIssueAt map[geom.NodeID]int64
}

// NewAppRun prepares a run of profile p on the alive nodes of s's
// topology, using alg for routes. The hotspot is the alive router closest
// to the mesh center (a memory-controller stand-in). The run's injector
// takes rng over (see NewInjector), and the closed loop issues through
// the same injector, so rng is never drawn from again.
func NewAppRun(s *network.Sim, alg routing.Algorithm, p AppProfile, rng *rand.Rand) *AppRun {
	alive := s.Topo.AliveRouters()
	uniform := NewUniformRandom(alive)
	var pattern Pattern = uniform
	if p.HotspotFraction > 0 {
		pattern = Hotspot{Spot: centerMost(s, alive), Fraction: p.HotspotFraction, Uniform: uniform}
	}
	inj := NewInjector(alive, alg, pattern, p.RateFlits, rng)
	inj.CtrlFraction = p.CtrlFraction
	return &AppRun{
		Profile:     p,
		inj:         inj,
		start:       s.Now,
		delivered:   s.Stats.Delivered,
		offered:     s.Stats.Offered,
		outstanding: make(map[geom.NodeID][]int64),
		doneAt:      make(map[int64]int64),
		nextIssueAt: make(map[geom.NodeID]int64),
	}
}

// hookDeliveries chains onto s.OnDeliver to latch the delivery cycle of
// tracked requests; delivery is the last moment the *Packet may be read
// (the pool recycles it immediately after the hook returns).
func (a *AppRun) hookDeliveries(s *network.Sim) {
	if a.hooked {
		return
	}
	a.hooked = true
	prev := s.OnDeliver
	s.OnDeliver = func(p *network.Packet) {
		if prev != nil {
			prev(p)
		}
		if _, ok := a.doneAt[p.ID]; ok {
			a.doneAt[p.ID] = p.DeliveredAt
		}
	}
}

// tickClosedLoop issues at most one request per node per cycle: a node
// issues when its window has room and its think time since the last
// completion has elapsed, so per-request cost ≈ ThinkTime + round trip.
func (a *AppRun) tickClosedLoop(s *network.Sim, budget int64) int64 {
	p := a.Profile
	a.hookDeliveries(s)
	issued := int64(0)
	for _, src := range s.Topo.AliveRouters() {
		// Retire completed requests and start the think timer. A request
		// retires once its latched delivery cycle has passed — the same
		// condition the pre-pooling code read off the retained packet.
		live := a.outstanding[src][:0]
		for _, id := range a.outstanding[src] {
			if done := a.doneAt[id]; done >= 0 && done <= s.Now {
				a.nextIssueAt[src] = done + int64(p.ThinkTime)
				delete(a.doneAt, id)
			} else {
				live = append(live, id)
			}
		}
		a.outstanding[src] = live
		if budget-issued <= 0 || len(live) >= p.OutstandingWindow {
			continue
		}
		if s.Now < a.nextIssueAt[src] {
			continue
		}
		pkt := a.inj.emit(s, src)
		if pkt == nil {
			continue
		}
		a.doneAt[pkt.ID] = -1
		a.outstanding[src] = append(a.outstanding[src], pkt.ID)
		issued++
	}
	return issued
}

// centerMost returns the alive router closest to the mesh center.
func centerMost(s *network.Sim, alive []geom.NodeID) geom.NodeID {
	cx, cy := (s.Topo.Width()-1)/2, (s.Topo.Height()-1)/2
	best := alive[0]
	bestD := 1 << 30
	for _, n := range alive {
		d := geom.ManhattanDistance(s.Topo.Coord(n), geom.Coord{X: cx, Y: cy})
		if d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// Result summarizes a completed application run.
type Result struct {
	Runtime    int64 // cycles until WorkPackets were delivered (or horizon)
	Delivered  int64
	Completed  bool
	Throughput float64 // delivered packets per cycle
}

// work returns the packets offered and delivered since the run began.
func (a *AppRun) work(s *network.Sim) (offered, delivered int64) {
	return s.Stats.Offered - a.offered, s.Stats.Delivered - a.delivered
}

// Done reports whether the work has been generated and delivered.
// Packets dropped as unroutable never count as work.
func (a *AppRun) Done(s *network.Sim) bool {
	offered, delivered := a.work(s)
	return offered >= int64(a.Profile.WorkPackets) && delivered >= offered
}

// Tick offers one cycle of traffic while work remains to be generated
// and the profile is in a burst phase.
func (a *AppRun) Tick(s *network.Sim) {
	p := a.Profile
	offered, _ := a.work(s)
	inBurst := p.IdleLen == 0 || a.phase%(p.BurstLen+p.IdleLen) < p.BurstLen
	if inBurst && offered < int64(p.WorkPackets) {
		if p.OutstandingWindow > 0 {
			a.tickClosedLoop(s, int64(p.WorkPackets)-offered)
		} else {
			a.inj.Tick(s)
		}
	}
	a.phase++
}

// Result reports the run so far.
func (a *AppRun) Result(s *network.Sim) Result {
	_, delivered := a.work(s)
	res := Result{
		Runtime:   s.Now - a.start,
		Delivered: delivered,
		Completed: a.Done(s),
	}
	if res.Runtime > 0 {
		res.Throughput = float64(delivered) / float64(res.Runtime)
	}
	return res
}

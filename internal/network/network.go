// Package network implements a deterministic, flit-timed NoC simulator
// for mesh-derived irregular topologies: 5-port virtual-channel routers
// with virtual cut-through flow control
// (packet-sized VCs, as the paper assumes in Section IV-A),
// credit-accurate buffer reuse, 1-cycle routers and 1-cycle links,
// multiple virtual networks, and per-class link utilization accounting.
// A router's buffers — its input VCs, then the static bubble — are one
// array addressed by candidate index; code outside the package reads
// them only through Router.Buf, the occupancy word (OccupancyMirror) and
// VnetSlots, so the layout is decided here alone.
//
// Step sweeps an active set every cycle: a router is visited only if it
// holds a buffered packet or has traffic queued at its NI (see
// stepper.go for the byte-identity argument). The per-node phase
// primitives InjectNode, AllocateNode and TransferBubbleNode are
// exported so the deliberately
// naive full-scan stepper in internal/network/refmodel can drive the
// identical movement logic; a differential harness there proves the two
// cores cycle-exact.
//
// The simulator is scheme-agnostic: deadlock-recovery machinery (Static
// Bubble FSMs in internal/core, escape-VC timeouts in internal/escape)
// attaches through per-cycle callbacks plus state the allocator reads —
// injection fences (the is_deadlock mechanism), an optional extra buffer
// per router (the static bubble), an escape class (a reserved VC index
// and a tree for promoted packets, escclass.go) and a hop class (per-hop
// adaptive routing over a mask table, hopclass.go). None of it is a hook
// the allocator calls: Step allocates through one fused bitset pass
// (dense.go), which every scheme keeps. Everything runs on the goroutine
// that calls Step: independent simulations, not one simulation's
// routers, are what run in parallel (internal/sweep).
package network

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The router is the paper's Table II router, sized at design time like
// the hardware it models: NumVnets virtual networks (message classes) of
// VCsPerVnet virtual channels at each input port, VCDepth-flit VCs
// (virtual cut-through: a packet fills exactly one VC, so no packet is
// longer), and a RouterLatency-cycle router and a LinkLatency-cycle link
// per hop.
const (
	NumVnets      = 3
	VCsPerVnet    = 4
	VCDepth       = 5
	RouterLatency = 1
	LinkLatency   = 1
	// SlotsPerPort is the number of VCs at each input port.
	SlotsPerPort = NumVnets * VCsPerVnet
	// HopLatency is the per-hop cost of a head: router plus link.
	HopLatency = RouterLatency + LinkLatency
)

// A router's buffers are one array addressed by candidate index: its
// NumPorts*SlotsPerPort input VCs at in*SlotsPerPort+sl, then the static
// bubble at BubbleIndex (Router.Buf resolves one). numCand counts them;
// slotMask masks one input port's slots, and nonLocalBits the link ports'
// slots plus the bubble.
const (
	BubbleIndex         = geom.NumPorts * SlotsPerPort
	numCand             = BubbleIndex + 1
	slotMask     uint64 = 1<<SlotsPerPort - 1
	nonLocalBits uint64 = 1<<(geom.NumLinkDirs*SlotsPerPort) - 1 | 1<<BubbleIndex
)

// VnetSlots masks, in a router's occupancy word, the VCs of vnet at
// input port in.
func VnetSlots(in geom.Direction, vnet int) uint64 {
	return (1<<VCsPerVnet - 1) << uint(int(in)*SlotsPerPort+vnet*VCsPerVnet)
}

// Every candidate must fit the allocator's one 64-bit request word: the
// paper's 3x4 gives 61. A wider router fails to compile.
const _ = uint(64 - numCand)

// Config holds no structural parameter: the router is fixed above.
type Config struct {
	// Shards is ignored: the simulator steps every router on the calling
	// goroutine. The field stays only because the benchmark's side pass
	// still sets it (see ROADMAP item 6(b)).
	Shards int
}

// Sim is one simulated network instance. Construct with New; advance with
// Step. All exported state may be read by scheme plugins; mutation outside
// the documented hooks voids determinism guarantees.
type Sim struct {
	Topo    *topology.Topology
	Routers []Router
	// NIQueue[node][vnet] is the source-side injection FIFO.
	NIQueue [][]NIRing
	// Now is the current cycle (events of cycle Now happen during Step).
	Now int64
	// Rng is the simulation's own randomness: reconfiguration draws its
	// reroutes from it. The core itself never does, and a traffic
	// Injector takes its own rng over instead of sharing this one.
	Rng *rand.Rand

	// PreCycle hooks run at the start of each Step, before injection and
	// switch allocation. Control-message transport and FSMs live here.
	PreCycle []func(*Sim)
	// PostCycle hooks run at the end of each Step, after allocation.
	PostCycle []func(*Sim)
	// OutputOverride is inert: the simulator never reads it (per-hop
	// adaptive routing is the hop class, hopclass.go). The field stays
	// only because the benchmark's traced pass still wraps it (see
	// ROADMAP item 6(c)).
	OutputOverride func(p *Packet, at geom.NodeID) (geom.Direction, bool)
	// OnDeliver, when non-nil, is called once per delivered packet (at
	// ejection grant time). Latency collectors hook in here; it observes
	// only.
	OnDeliver func(p *Packet)

	Stats Stats
	// LastProgress is the last cycle any packet moved between buffers or
	// was delivered; the benchmark's wedge watchdog reads it.
	LastProgress int64

	nextPktID int64
	inFlight  int64
	// grantN[id] counts router id's grants (Router.Grants), the SB
	// controller's progress witness.
	grantN []int64
	// niPend[id] counts packets queued across router id's NI rings —
	// the stepper's activity predicate reads it instead of touching
	// every ring — and queued is their sum (QueuedPackets). Enqueue,
	// InjectNode and FilterQueued keep both: they are the rings' only
	// writers.
	niPend []int32
	queued int64
	// pool recycles delivered/lost packets and their route spans (see
	// pool.go for the ownership rules).
	pool poolState
	// seqGather is AllocateNode's switch-allocation scratch (the
	// refmodel's full scan).
	seqGather allocGather
	// vcFilter and outputOverride are a reference allocator's hooks,
	// installed only by tests (export_test.go) on a Sim the refmodel
	// steps: findFreeVC and OutputOf consult them, Step's fused pass
	// never does.
	vcFilter       func(p *Packet, dst geom.NodeID, in geom.Direction, vcIdx int) bool
	outputOverride func(p *Packet, at geom.NodeID) (geom.Direction, bool)

	// active and ids are the stepper's active set (stepper.go).
	active []uint64
	ids    []int32

	ctr StepperCounters
	// dense holds the slot-occupancy mirror, the registered request
	// vectors, the buffer timer words with their wheel and the constants
	// of the fused bitset allocation pass (see dense.go).
	dense denseState
	// escClass, when non-nil, is the attached escape class (escclass.go).
	escClass *escapeClass
	// hopClass, when non-nil, is the attached hop class (hopclass.go).
	hopClass *hopClass
}

// New builds a simulator over topo. The topology may be irregular; dead
// routers carry no state. cfg is ignored (Config).
func New(topo *topology.Topology, cfg Config, rng *rand.Rand) *Sim {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := topo.NumNodes()
	s := &Sim{
		Topo:    topo,
		Routers: make([]Router, n),
		NIQueue: make([][]NIRing, n),
		Rng:     rng,
	}
	s.grantN = make([]int64, n)
	s.niPend = make([]int32, n)
	for id := 0; id < n; id++ {
		r := &s.Routers[id]
		r.ID = geom.NodeID(id)
		r.sim = s
		s.NIQueue[id] = make([]NIRing, NumVnets)
	}
	s.seqGather.init()
	s.dense.init(n)
	s.setLanes()
	s.active = make([]uint64, (n+63)>>6)
	s.ids = make([]int32, 0, n)
	return s
}

// NewPacket allocates a packet with a fresh id. length is in flits and
// must fit the VC depth. route is COPIED into the packet's own route
// buffer — a recycled packet's, under pooling (the default) — so the
// caller keeps its buffer.
func (s *Sim) NewPacket(src, dst geom.NodeID, vnet, length int, route routing.Route) *Packet {
	if length < 1 || length > VCDepth {
		panic(fmt.Sprintf("network: packet length %d outside [1,%d]", length, VCDepth))
	}
	if vnet < 0 || vnet >= NumVnets {
		panic(fmt.Sprintf("network: vnet %d outside [0,%d)", vnet, NumVnets))
	}
	s.nextPktID++
	var p *Packet
	if s.pool.disabled {
		p = new(Packet)
	} else if n := len(s.pool.free); n > 0 {
		p = s.pool.free[n-1]
		s.pool.free[n-1] = nil
		s.pool.free = s.pool.free[:n-1]
		s.pool.stats.PacketReuses++
		// Reset everything except the route buffer, which SetRoute below
		// rewrites in place.
		*p = Packet{Route: p.Route}
	} else {
		if p = s.carvePacket(); p == nil {
			p = new(Packet)
		}
		s.pool.stats.PacketAllocs++
	}
	p.ID = s.nextPktID
	p.Src, p.Dst = src, dst
	p.Vnet, p.Len = vnet, length
	p.CreatedAt = s.Now
	p.InjectedAt, p.DeliveredAt = -1, -1
	s.SetRoute(p, route)
	return p
}

// Enqueue places p into its source NI queue. The caller is responsible
// for having computed a valid route (or attached a hop class).
func (s *Sim) Enqueue(p *Packet) {
	s.NIQueue[p.Src][p.Vnet].Push(p)
	s.niPend[p.Src]++
	s.queued++
	s.Stats.Offered++
	s.markActive(p.Src)
}

// NIPending returns the number of packets queued across router id's NI
// rings (the aggregate the activity predicate reads).
func (s *Sim) NIPending(id geom.NodeID) int { return int(s.niPend[id]) }

// FilterQueued keeps, in ring order, only the packets queued at router
// id's NI for which keep returns true (reconfig's repair of queued
// traffic); each packet dropped counts as lost and is recycled.
func (s *Sim) FilterQueued(id geom.NodeID, keep func(*Packet) bool) {
	if s.niPend[id] == 0 {
		return
	}
	filter := func(p *Packet) bool {
		if keep(p) {
			return true
		}
		s.niPend[id]--
		s.queued--
		s.Stats.Lost++
		s.releasePacket(p)
		return false
	}
	for v := range s.NIQueue[id] {
		s.NIQueue[id][v].Filter(filter)
	}
}

// Drop records a packet that could not be routed (destination
// unreachable); the paper's methodology drops such packets under
// synthetic traffic.
func (s *Sim) Drop() { s.Stats.DroppedUnreachable++ }

// RemovePacket destroys the packet in buffer ci (a candidate index) of
// router at — runtime failure handling (e.g. a router dying with traffic
// inside). Conservation counters are adjusted; the buffer is immediately
// reusable.
func (s *Sim) RemovePacket(at geom.NodeID, ci int) {
	vc := s.Routers[at].Buf(ci)
	p := vc.Pkt
	if p == nil {
		return
	}
	s.cancelTimer(at, ci) // the head may still be in flight
	vc.Pkt = nil
	vc.FreeAt = s.Now
	s.occBitClear(at, ci, vc.FreeAt)
	s.inFlight--
	s.Stats.Lost++
	s.releasePacket(p)
}

// PlacePacket installs p directly into slot `slot` of input port `in` at
// router id with its head immediately ready — a hook for tests that need
// a precise hand-built buffer state (e.g. the recovery-FSM transition
// table's dependence chains) without arranging traffic to produce it.
// Conservation counters are adjusted as if the packet had been offered
// and injected, and the router joins the active set.
func (s *Sim) PlacePacket(id geom.NodeID, in geom.Direction, slot int, p *Packet) {
	s.place(id, int(in)*SlotsPerPort+slot, p)
}

// place is PlacePacket and PlaceBubblePacket's body: p into buffer ci
// of router id.
func (s *Sim) place(id geom.NodeID, ci int, p *Packet) {
	vc := s.Routers[id].Buf(ci)
	if vc.Pkt != nil {
		panic("network: PlacePacket into an occupied buffer")
	}
	s.cancelTimer(id, ci) // the buffer may still be draining
	vc.Pkt = p
	vc.ReadyAt = s.Now
	s.occBitSet(id, ci, p, vc.ReadyAt)
	s.inFlight++
	s.Stats.Offered++
	s.Stats.Injected++
	s.Stats.InjectedFlits += int64(p.Len)
	p.InjectedAt = s.Now
	s.markActive(id)
}

// ReplacePacket puts p into occupied buffer ci of router at in place of
// its occupant, one hop further along, its head arriving a hop from now:
// the move of a SPIN rotation (core), which advances every packet of a
// dependency cycle one hop at once, so each buffer is vacated and
// refilled in the same instant. The rotation places the displaced
// occupant in turn; the caller keeps the counters.
func (s *Sim) ReplacePacket(at geom.NodeID, ci int, p *Packet) {
	vc := s.Routers[at].Buf(ci)
	if vc.Pkt == nil {
		panic("network: ReplacePacket into an empty buffer")
	}
	s.cancelTimer(at, ci)
	s.occBitClear(at, ci, s.Now)
	vc.Pkt = p
	p.Hop++
	vc.ReadyAt = s.Now + HopLatency
	s.occBitSet(at, ci, p, vc.ReadyAt)
}

// Reroute replaces the route of the packet in buffer ci of router at
// with a copy of r, starting there (reconfig's repair of in-flight
// traffic), and re-files the buffer under its new next hop.
func (s *Sim) Reroute(at geom.NodeID, ci int, r routing.Route) {
	s.SetRoute(s.Routers[at].Buf(ci).Pkt, r)
	s.reregister(at, ci)
}

// PlaceBubblePacket installs p as the static-bubble occupant of router
// id, arriving on input port in — PlacePacket's bubble-slot counterpart.
func (s *Sim) PlaceBubblePacket(id geom.NodeID, in geom.Direction, p *Packet) {
	s.Routers[id].Bubble.InPort = in
	s.place(id, BubbleIndex, p)
}

// DeliverOutOfBand removes the packet in buffer ci (a candidate index)
// of router at and counts it as delivered at the given cycle — modeling a
// dedicated side network that bypasses the regular datapath, such as
// DISHA's deadlock-buffer lane. deliverAt must not precede the current
// cycle.
func (s *Sim) DeliverOutOfBand(at geom.NodeID, ci int, deliverAt int64) {
	vc := s.Routers[at].Buf(ci)
	p := vc.Pkt
	if p == nil {
		return
	}
	if deliverAt < s.Now {
		deliverAt = s.Now
	}
	s.cancelTimer(at, ci)
	vc.Pkt = nil
	vc.FreeAt = s.Now + int64(p.Len)
	s.occBitClear(at, ci, vc.FreeAt)
	s.inFlight--
	p.DeliveredAt = deliverAt
	s.Stats.DeliveredFlits += int64(p.Len)
	s.Stats.recordDelivery(p)
	if s.OnDeliver != nil {
		s.OnDeliver(p)
	}
	s.LastProgress = s.Now
	s.releasePacket(p)
}

// Run advances the simulation by n cycles.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// InFlight returns the number of packets currently inside the network
// (occupying VCs or bubbles), excluding NI queues.
func (s *Sim) InFlight() int64 { return s.inFlight }

// QueuedPackets returns the number of packets waiting in NI queues.
func (s *Sim) QueuedPackets() int64 { return s.queued }

// InjectNode moves node id's NI-queue heads into free local-port VCs,
// one packet per vnet per cycle — the injection phase for a single
// node. Exported as a stepper building block; Step invokes it for
// active routers, the refmodel for every router.
func (s *Sim) InjectNode(id geom.NodeID) {
	qs := s.NIQueue[id]
	if !s.Topo.RouterAlive(id) {
		// A dead router cannot inject, but its queue survives (the
		// router may be re-enabled) and keeps it in the active set.
		return
	}
	r := &s.Routers[id]
	for vnet := range qs {
		q := &qs[vnet]
		if q.Len() == 0 {
			continue
		}
		p := q.Front()
		ci := s.findFreeVC(id, geom.Local, p)
		if ci < 0 {
			continue // blocked on a free VC: retry next cycle
		}
		vc := &r.bufs[ci]
		vc.Pkt = p
		vc.ReadyAt = s.Now + RouterLatency
		s.occBitSet(id, ci, p, vc.ReadyAt)
		p.InjectedAt = s.Now
		q.PopFront() // one injection per vnet per cycle
		s.niPend[id]--
		s.queued--
		s.Stats.Injected++
		s.Stats.InjectedFlits += int64(p.Len)
		s.inFlight++
	}
}

// findFreeVC returns the candidate index of a free VC at router node's
// input port `in` for packet p, or -1. Only slots of p's vnet that admit
// p's class (escclass.go) are considered, lowest first; a test's
// reference vcFilter may veto individual slots.
func (s *Sim) findFreeVC(node geom.NodeID, in geom.Direction, p *Packet) int {
	r := &s.Routers[node]
	base := int(in)*SlotsPerPort + p.Vnet*VCsPerVnet
	lo, hi, skip := s.classVCs(p.Escaped)
	for i := lo; i < hi; i++ {
		if i != skip && r.bufs[base+i].Empty(s.Now) && (s.vcFilter == nil || s.vcFilter(p, node, in, i)) {
			return base + i
		}
	}
	return -1
}

// OutputOf returns the output port packet p wants at router `at`: the
// hop class's choice when one is attached (it answers for every packet,
// hopclass.go), else a test's reference outputOverride if installed and
// answering, else the escape class's
// tree hop for an escaped packet (a destination the tree cannot reach
// falls back to the source route), else the next hop of its source route,
// else Local (ejection) once the route is exhausted. The route-derived
// answer depends only on (Route, Hop) and, for a buffered packet, is
// registered in its router's request vectors (dense.go) — so a buffered
// packet changes route only through Reroute, which re-files it; a write
// to Route or Hop from outside the package would leave the vectors
// behind.
func (s *Sim) OutputOf(p *Packet, at geom.NodeID) geom.Direction {
	if s.hopClass != nil {
		return s.hopOutput(p, at)
	}
	if s.outputOverride != nil {
		if d, ok := s.outputOverride(p, at); ok {
			return d
		}
	}
	if e := s.escClass; e != nil && p.Escaped {
		if d := e.tree.TreeNextHop(at, p.Dst); d != geom.Invalid {
			return d
		}
		if p.Dst == at {
			return geom.Local
		}
	}
	if p.Hop < len(p.Route) {
		return p.Route[p.Hop]
	}
	return geom.Local
}

// UseLink records one cycle of control-message occupancy on the outgoing
// link of node n in direction d, blocking any flit grant on that link for
// the current cycle (control messages have priority over flits).
func (s *Sim) UseLink(n geom.NodeID, d geom.Direction, class LinkClass) {
	r := &s.Routers[n]
	if r.OutFreeAt[d] <= s.Now {
		r.OutFreeAt[d] = s.Now + 1
	}
	s.Stats.LinkCycles[class]++
}

// AliveDirectedLinkCount returns the number of usable directed channels,
// the denominator of link-utilization statistics.
func (s *Sim) AliveDirectedLinkCount() int {
	n := 0
	for id := 0; id < s.Topo.NumNodes(); id++ {
		for _, d := range geom.LinkDirs {
			if s.Topo.HasLink(geom.NodeID(id), d) {
				n++
			}
		}
	}
	return n
}

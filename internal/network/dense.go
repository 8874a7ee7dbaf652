package network

// The slot-occupancy mirror, the registered request vectors and the
// fused bitset allocation pass.
//
// denseAllocNode is gatherAllocate+commitAllocate with the bucket
// indirection and the per-head classification removed. Each router's
// per-output request vectors are state, like the request registers of a
// hardware allocator: want[id][out] has bit ci set (candidate index
// in*slots+sl, the bubble at bit `total`) iff that buffer holds a packet
// whose next hop at id is out — the source route's, or the escape tree's
// for an escaped packet (escclass.go), or under a hop class the single
// minimal direction (hopclass.go) — pend[id] marks occupied buffers whose
// head may not have arrived yet, and esc[id] marks the buffers whose
// packet is escaped. A hop class adds one word of its own, choose[id]:
// the buffers whose packet has several minimal directions, which are in
// no want word and which the pass files under an output each visit. All
// are written where occBits is — at a buffer fill (occBitSet, after the
// packet is in place) and at a buffer clear (occBitClear) — so a visit
// derives its desire masks with a few word operations, whatever the
// router holds, and touches a VC only to retire a pend bit (a packet is
// looked at on the two or three visits after it arrives, never again
// while it waits). Round-robin arbitration walks the mask cyclically from
// saPtr with TrailingZeros64, and downstream buffer availability is
// memoized per (output, vnet, class) instead of re-scanned per candidate:
// which VC indices of a vnet a packet may enter depends only on whether
// it is escaped, so esc[id] splits each vnet's candidates into the two
// groups that share an answer. The mask holds exactly the gather's
// candidate set (same fence, liveness, readiness and output filters, in
// the same ascending candidate order), the cyclic mask walk visits
// candidates in the same order commitAllocate's rotate-and-scan does, the
// memoized free-slot answer equals tryGrant's own re-scan (stepper.go,
// downstream availability), and a candidate is skipped exactly when
// tryGrant would have rejected it. The winner moves through the very same
// tryGrant the generic commit uses.
//
// Staleness rule. The vectors are maintained by the package's own
// fill/clear sites and by PromoteEscape, which re-registers the one
// buffer whose packet it moves to the escape class. Anything else that
// changes what a buffered packet wants raises one flag, dense.stale:
// exported SetRoute (reconfig's reroutes), attaching an escape or hop
// class, swapping the escape tree (SetEscapeTree), and Wake — the notice
// a scheme that moves packets by hand (core's SPIN rotation) owes the
// simulator. A sweep rebuilds the vectors from the buffers before it
// starts (syncVectors; O(resident packets)). Invariant: whenever the pass
// reads want/pend/esc/choose they equal a from-scratch rebuild, pend up
// to bits whose head has since arrived (validate.Check and
// TestRequestVectorsMatchRebuild assert it). The fence and
// Bubble.Present/InPort stay live reads in the pass: core writes the
// fence and bubble directly, every cycle of a recovery, and reading a few
// fields per visit is cheaper than a notice per write.
//
// This is the one allocation pass Step runs, for every scheme: a class or
// a rule is state the pass reads, not a hook it must call — the escape
// class's two rules and the hop class's mask table. Every candidate fits
// one word because New rejects a Config whose NumPorts*SlotsPerPort
// buffers plus the bubble exceed 64. AllocateNode, the gather-then-commit
// allocator, is the refmodel's reference, and the differential harness
// holds the two equal.

import (
	"math/bits"

	"repro/internal/geom"
)

// denseState holds the fused pass's per-Config constants and the
// slot-occupancy mirror.
type denseState struct {
	// vnetBits[v] masks the candidate indices whose slot belongs to vnet
	// v (across all input ports; the bubble bit is excluded — its vnet is
	// the occupant's, resolved at arbitration time). Static for a given
	// Config, so the fused pass classifies grantability per vnet with one
	// AND instead of touching each candidate's packet.
	vnetBits []uint64
	// slots/total/slotMask cache SlotsPerPort-derived constants for the
	// per-router fused pass.
	slots    int
	total    int
	slotMask uint64
	// occBits[id] mirrors router id's buffer occupancy at slot
	// granularity: bit ci (= in*slots+sl, bubble at NumPorts*slots) is
	// set iff that buffer holds a packet. Maintained by every fill/clear
	// site in the package (tryGrant, InjectNode, bubble transfer,
	// placement and removal helpers). The fused classification
	// walks only the set bits, so a barely-occupied router costs its
	// occupancy, not its capacity. SPIN rotations (core) move packets
	// between slots that stay occupied, so the bitmap survives them; the
	// request vectors do not, which is why core announces a rotation
	// with Wake.
	occBits []uint64
	// want[id][out] and pend[id] are router id's registered request
	// vectors (file comment): bit ci of want[id][out] is set iff buffer
	// ci holds a packet whose next hop at id is out; bit ci of pend[id]
	// is set while buffer ci's ReadyAt may still lie ahead (a superset of
	// the heads in flight — denseAllocNode retires arrived bits). Both
	// are subsets of occBits[id] at all times, and equal a rebuild
	// whenever stale is false.
	want [][geom.NumPorts]uint64
	pend []uint64
	// esc[id] is the class word beside them: bit ci is set iff buffer ci
	// holds an escaped packet (escclass.go) — all zero without an escape
	// class. Downstream buffer availability differs by class, so the pass
	// splits each output's candidates on it. Same subset and rebuild rules
	// as want.
	esc []uint64
	// stale records that something other than a maintained fill/clear
	// may have changed what a buffered packet wants; the next sweep
	// rebuilds.
	stale bool
}

func (d *denseState) init(numNodes int, cfg Config) {
	slots := cfg.SlotsPerPort()
	d.slots = slots
	d.total = geom.NumPorts * slots
	d.slotMask = uint64(1)<<uint(slots) - 1
	d.vnetBits = make([]uint64, cfg.NumVnets)
	for v := 0; v < cfg.NumVnets; v++ {
		lane := (uint64(1)<<uint(cfg.VCsPerVnet) - 1) << uint(v*cfg.VCsPerVnet)
		for in := 0; in < geom.NumPorts; in++ {
			d.vnetBits[v] |= lane << uint(in*slots)
		}
	}
	d.occBits = make([]uint64, numNodes)
	d.want = make([][geom.NumPorts]uint64, numNodes)
	d.pend = make([]uint64, numNodes)
	d.esc = make([]uint64, numNodes)
}

// occBitSet / occBitClear maintain the slot-occupancy mirror and the
// request vectors (and the fill cycle an attached escape class keeps per
// buffer). bit is the candidate index of the buffer being filled or
// emptied.
//
// occBitSet must run after p is in place at its new hop (buffer written,
// p.Hop advanced): it derives p's next hop at id.
func (s *Sim) occBitSet(id geom.NodeID, bit int, p *Packet) {
	if e := s.escClass; e != nil {
		e.fill[int(id)*e.stride+bit] = s.Now
	}
	d := &s.dense
	m := uint64(1) << uint(bit)
	d.occBits[id] |= m
	if s.hopClass != nil {
		s.registerHop(id, bit, p)
	} else if out := s.OutputOf(p, id); out != geom.Invalid {
		// registerHop without a class, in line: every hop of every packet
		// passes here.
		d.want[id][out] |= m
	}
	d.pend[id] |= m
	if p.Escaped {
		d.esc[id] |= m
	}
}

// registerHop files buffer ci of router id, holding p, under the output p
// wants there: a want bit, nothing for a packet with nowhere to go, or —
// under a hop class, for a packet with several minimal directions — the
// class's choose-per-visit word and mask byte (hopclass.go).
func (s *Sim) registerHop(id geom.NodeID, ci int, p *Packet) {
	m := uint64(1) << uint(ci)
	var out geom.Direction
	if h := s.hopClass; h != nil {
		var mask uint8
		if out, mask = h.hopOf(p, id); mask != 0 {
			h.choose[id] |= m
			h.mask[int(id)*h.stride+ci] = mask
			return
		}
	} else {
		out = s.OutputOf(p, id)
	}
	if out != geom.Invalid {
		s.dense.want[id][out] |= m
	}
}

func (s *Sim) occBitClear(id geom.NodeID, bit int) {
	d := &s.dense
	m := ^(uint64(1) << uint(bit))
	d.occBits[id] &= m
	d.pend[id] &= m
	d.esc[id] &= m
	w := &d.want[id]
	for out := range w {
		w[out] &= m
	}
	if h := s.hopClass; h != nil {
		h.choose[id] &= m
	}
}

// rebuildVectors derives router id's request vectors (and the hop
// class's word) from its buffers: the definition the maintained copies
// must equal (pend exactly the heads not yet arrived).
func (s *Sim) rebuildVectors(id geom.NodeID) {
	d := &s.dense
	r := &s.Routers[id]
	d.want[id], d.pend[id], d.esc[id] = [geom.NumPorts]uint64{}, 0, 0
	if h := s.hopClass; h != nil {
		h.choose[id] = 0
	}
	for w := d.occBits[id]; w != 0; w &= w - 1 {
		ci := bits.TrailingZeros64(w)
		vc, _ := r.candVC(int32(ci), d.slots, d.total)
		s.registerHop(id, ci, vc.Pkt)
		if vc.ReadyAt > s.Now {
			d.pend[id] |= 1 << uint(ci)
		}
		if vc.Pkt.Escaped {
			d.esc[id] |= 1 << uint(ci)
		}
	}
}

// syncVectors runs at the top of every sweep: it rebuilds the request
// vectors from the buffers if they are stale.
func (s *Sim) syncVectors() {
	d := &s.dense
	if d.stale {
		for id := range d.occBits {
			s.rebuildVectors(geom.NodeID(id))
		}
		d.stale = false
	}
}

// RequestVectors returns router id's registered request vectors (want
// per output, pend) and whether they are live — not marked stale, i.e.
// what the next sweep would read as is. Exposed for the validate
// package, which recomputes them from buffer contents: a drifted bit
// moves or strands a packet under Step only, so the refmodel harness
// would catch it late and far from the cause.
func (s *Sim) RequestVectors(id geom.NodeID) (want [geom.NumPorts]uint64, pend uint64, live bool) {
	if !s.vectorsLive() {
		return want, 0, false
	}
	return s.dense.want[id], s.dense.pend[id], true
}

// EscapedVector returns router id's class word (bit ci set iff buffer ci
// holds an escaped packet); it is live exactly when RequestVectors is.
func (s *Sim) EscapedVector(id geom.NodeID) (esc uint64, live bool) {
	if !s.vectorsLive() {
		return 0, false
	}
	return s.dense.esc[id], true
}

func (s *Sim) vectorsLive() bool { return !s.dense.stale }

// occBitClearVC is occBitClear for callers holding only the buffer
// pointer (the rare out-of-band removal paths): the slot is recovered by
// scanning the port's VC array, falling back to the bubble bit.
func (s *Sim) occBitClearVC(id geom.NodeID, port geom.Direction, vc *VC) {
	r := &s.Routers[id]
	if vc == &r.Bubble.VC {
		s.occBitClear(id, geom.NumPorts*s.Cfg.SlotsPerPort())
		return
	}
	vcs := r.In[port]
	for sl := range vcs {
		if &vcs[sl] == vc {
			s.occBitClear(id, int(port)*s.Cfg.SlotsPerPort()+sl)
			return
		}
	}
}

// OccupancyMirror returns the raw slot-occupancy word for router id
// (bit in*slots+sl per buffer, bubble at NumPorts*slots). Exposed for the
// validate package, which cross-checks the mirror against actual buffer
// contents — the mirror feeds the FSM scan under the refmodel and under
// Step alike, so drift would not show up as a differential mismatch.
func (s *Sim) OccupancyMirror(id geom.NodeID) uint64 { return s.dense.occBits[id] }

// OccupiedScanWord returns the router's non-local occupancy as a bit
// word in the deadlock-detection FSM's cyclic scan order — bit
// in*slots+sl is set iff link-input slot (in, sl) holds a packet, and
// bit NumLinkDirs*slots iff the static bubble is present and occupied.
// It lets the FSM's "next occupied VC after X" round-robin resolve with
// two TrailingZeros64 instead of a slot-by-slot scan.
func (r *Router) OccupiedScanWord() uint64 {
	d := &r.sim.dense
	occ := d.occBits[r.ID]
	link := uint(geom.NumLinkDirs * d.slots)
	w := occ & (uint64(1)<<link - 1)
	if r.Bubble.Present && occ>>uint(d.total)&1 != 0 {
		w |= 1 << link
	}
	return w
}

// denseAllocNode is the fused switch-allocation pass for one router:
// gatherAllocate's candidate classification, read off the registered
// request vectors, and commitAllocate's round-robin arbitration in a
// single sweep over bitmasks, with no bucket building, no per-head work
// and no per-candidate downstream re-scans. Only valid with the vectors
// in sync (syncVectors); produces bit-for-bit the grants, Stats
// mutations and pool releases of AllocateNode.
func (s *Sim) denseAllocNode(id geom.NodeID) {
	if s.occ[id] == 0 || !s.Topo.RouterAlive(id) {
		// A dead router's buffered traffic cannot move; it stays in the
		// active set until a re-enable.
		return
	}
	r := &s.Routers[id]
	now := s.Now
	d := &s.dense
	slots := d.slots
	total := d.total // bubble uses candidate index `total`
	bubbleBit := uint64(1) << uint(total)

	// Classification: a buffer is a candidate for the output its packet
	// wants once its head has arrived. Retire the pend bits whose ReadyAt
	// has passed (the only VC reads here: heads still in flight, two or
	// three visits per hop), then every output's desire mask is its want
	// word restricted to the ready buffers — ascending candidate index by
	// construction, the order commitAllocate's buckets carry — plus, under
	// a hop class, the ready buffers that choose among several minimal
	// directions this visit.
	pw := d.pend[id]
	if pw != 0 {
		for w := pw; w != 0; w &= w - 1 {
			ci := bits.TrailingZeros64(w)
			if vc, _ := r.candVC(int32(ci), slots, total); vc.ReadyAt <= now {
				pw &^= 1 << uint(ci)
			}
		}
		d.pend[id] = pw
	}
	ready := d.occBits[id] &^ pw
	if !r.Bubble.Present {
		ready &^= bubbleBit
	}
	desire := d.want[id]
	for out := range desire {
		desire[out] &= ready
	}
	if h := s.hopClass; h != nil {
		if cw := h.choose[id] & ready; cw != 0 {
			s.hopResolve(id, cw, &desire)
		}
	}
	if f := &r.Fence; f.Active && uint(f.Out) < geom.NumPorts {
		// Only traffic from the fence's input port may take its output.
		var from uint64
		if uint(f.In) < geom.NumPorts {
			from = d.slotMask << uint(int(f.In)*slots)
		}
		if r.Bubble.InPort == f.In {
			from |= bubbleBit
		}
		desire[f.Out] &= from
	}

	// Arbitration: per output, reduce the desire mask to the grantable
	// candidates (per-vnet downstream availability, answered once per
	// vnet against the static vnetBits masks), then pick the first
	// grantable candidate in cyclic order from the round-robin pointer —
	// exactly the winner commitAllocate's rotate-and-scan converges on,
	// since the candidates it would skip are those tryGrant rejects.
	vnetBits := d.vnetBits
	for _, out := range geom.AllPorts {
		m := desire[out]
		if m == 0 || r.OutFreeAt[out] > now {
			continue
		}
		eligible := m
		if out != geom.Local {
			if !s.Topo.HasLink(id, out) {
				continue
			}
			nb, in := s.Topo.Neighbor(id, out), out.Opposite()
			if !s.Routers[nb].Bubble.EligibleFor(in, now) {
				// No downstream bubble: a candidate is grantable iff its
				// vnet has a free downstream VC of its class right now.
				eligible = 0
				ew := d.esc[id]
				for v, vb := range vnetBits {
					if reg := m & vb &^ ew; reg != 0 && s.findFreeVCNoFilter(nb, in, v, false) >= 0 {
						eligible |= reg
					}
					if esc := m & vb & ew; esc != 0 && s.findFreeVCNoFilter(nb, in, v, true) >= 0 {
						eligible |= esc
					}
				}
				if m&bubbleBit != 0 && s.findFreeVCNoFilter(nb, in, r.Bubble.VC.Pkt.Vnet, ew&bubbleBit != 0) >= 0 {
					eligible |= bubbleBit
				}
				if eligible == 0 {
					continue // every candidate blocked: no grant, pointer holds
				}
			}
		}
		hi := eligible & (^uint64(0) << uint(r.saPtr[out]))
		var ci int
		if hi != 0 {
			ci = bits.TrailingZeros64(hi)
		} else {
			ci = bits.TrailingZeros64(eligible)
		}
		vc, inPort := r.candVC(int32(ci), slots, total)
		if s.tryGrant(r, out, vc, vc.Pkt, inPort, ci) {
			r.saPtr[out] = (ci + 1) % (total + 1)
		}
	}
}

package network

// The slot-occupancy mirror, the registered request vectors, the buffer
// timer words and the fused bitset allocation pass.
//
// denseAllocNode is gatherAllocate+commitAllocate with the bucket
// indirection, the per-head classification and the per-candidate
// downstream scan removed: it reads words, the way a hardware allocator
// reads its request registers and its per-port credit state, and touches
// a buffer only to move the winner. Each router's per-output request
// vectors are state: want[id][out] has bit ci set (candidate index
// in*slots+sl, the bubble at BubbleIndex) iff that buffer holds a packet
// whose next hop at id is out — the source route's, or the escape tree's
// for an escaped packet (escclass.go), or under a hop class the single
// minimal direction (hopclass.go) — and esc[id] marks the buffers whose
// packet is escaped. A hop class adds one word of its own, choose[id]:
// the buffers whose packet has several minimal directions, which are in
// no want word and which the pass files under an output each visit. All
// are written where occBits is — at a buffer fill (occBitSet, after the
// packet is in place) and at a buffer clear (occBitClear).
//
// Timers. Two more words mirror the buffers' timers exactly: pend[id]
// has bit ci set iff buffer ci holds a packet whose head has not arrived
// (ReadyAt > Now), drain[id] iff buffer ci is empty but its last tail is
// still streaming out (FreeAt > Now). The site that writes a timer sets
// the bit and files the buffer on a cycle wheel (timerWheel) under the
// cycle the timer runs out; ExpireTimers, run as the clock advances,
// clears the bits filed under the new cycle. A buffer runs at most one
// timer, so the wheel needs no per-buffer state. The paths that overwrite
// a running timer out of band — removing a head still in flight,
// placing a packet into a buffer still draining — cancel it first.
//
// The pass. A buffer is a candidate for the output its packet wants once
// its head has arrived: ready = occBits &^ pend, and every output's
// desire mask is its want word restricted to the ready buffers —
// ascending candidate index by construction, the order commitAllocate's
// buckets carry — plus, under a hop class, the ready buffers that choose
// among several minimal directions this visit. Downstream availability
// is a word too: the buffers a packet of vnet v and class c may enter at
// the neighbour's input port in are lane[v][c]<<(in*slots), and the free
// ones among them are that word less the neighbour's occBits|drain —
// Empty(Now) for every buffer at once. A candidate is grantable iff its
// (vnet, class) word is non-zero or the downstream bubble is eligible,
// and the winner's destination is the word's lowest set bit, which is
// the slot findFreeVC would pick; the grant body (grant) is the one
// tryGrant ends in. Round-robin arbitration walks the mask cyclically
// from saPtr with TrailingZeros64. The mask holds exactly the gather's
// candidate set (same fence, liveness, readiness and output filters), the
// cyclic mask walk visits candidates in the order commitAllocate's
// rotate-and-scan does, and a candidate is skipped exactly when tryGrant
// would have rejected it, so the pass produces the reference's grants.
//
// Staleness rule. The vectors are maintained by the package's own
// fill/clear sites and by PromoteEscape, which re-registers the one
// buffer whose packet it moves to the escape class. Anything else that
// changes what a buffered packet wants raises one flag, dense.stale:
// exported SetRoute (reconfig's reroutes), attaching an escape or hop
// class, swapping the escape tree (SetEscapeTree), and Wake — the notice
// a scheme that moves packets by hand (core's SPIN rotation, which also
// rewrites ReadyAt) owes the simulator. A sweep rebuilds the vectors and
// pend, and re-files pend's timers, from the buffers before it starts
// (syncVectors; O(resident packets) plus one pass over the wheel). drain
// needs no rebuild: nothing that marks the vectors stale touches an
// empty buffer. Invariant: whenever the pass reads want/pend/drain/esc/
// choose they equal a from-scratch derivation from the buffers
// (validate.Check and TestRequestVectorsMatchRebuild assert it). The
// fence and the Bubble flags stay live reads in the pass: core writes
// them directly, every cycle of a recovery, and reading a few fields per
// visit is cheaper than a notice per write.
//
// This is the one allocation pass Step runs, for every scheme: a class or
// a rule is state the pass reads, not a hook it must call — the escape
// class's two rules and the hop class's mask table. Every candidate fits
// one word: the NumPorts*SlotsPerPort buffers plus the bubble are at most
// 64, which network.go asserts at compile time. AllocateNode, the
// gather-then-commit allocator, is the refmodel's reference: it reads the
// buffers themselves, and the differential harness holds the two equal.

import (
	"math/bits"

	"repro/internal/geom"
)

// denseState holds the fused pass's slot-occupancy mirror, request
// vectors and timer words.
type denseState struct {
	// lane[v<<1|c] masks, within one input port's slots, the VC indices
	// of vnet v a packet of class c (1 = escaped) may enter: classVCs as
	// a word. Rewritten when an escape class attaches (setLanes).
	lane [2 * NumVnets]uint64
	// occBits[id] is router id's one occupancy record: bit ci (=
	// in*slots+sl, bubble at BubbleIndex) is set iff that buffer holds a
	// packet. Maintained by every fill/clear site in the package (grant,
	// InjectNode, bubble transfer, placement and removal helpers); the
	// occupancy counts, the stepper's and allocator's early-outs and the
	// recovery FSM's scan all read it. The fused classification walks
	// only the set bits, so a barely-occupied router costs its
	// occupancy, not its capacity. SPIN rotations (core) move packets
	// between slots that stay occupied, so the bitmap survives them; the
	// request vectors and pend do not, which is why core announces a
	// rotation with Wake.
	occBits []uint64
	// want[id][out] is router id's registered request vector for output
	// out (file comment): bit ci is set iff buffer ci holds a packet whose
	// next hop at id is out. A subset of occBits[id] at all times, and
	// equal to a rebuild whenever stale is false.
	want [][geom.NumPorts]uint64
	// pend[id] and drain[id] are the timer words (file comment): bit ci
	// of pend is set iff buffer ci holds a packet with ReadyAt > Now, of
	// drain iff buffer ci is empty with FreeAt > Now. pend is a subset of
	// occBits[id] and drain disjoint from it; both are exact whenever
	// stale is false.
	pend  []uint64
	drain []uint64
	// esc[id] is the class word beside them: bit ci is set iff buffer ci
	// holds an escaped packet (escclass.go) — all zero without an escape
	// class. Downstream buffer availability differs by class, so the pass
	// splits each output's candidates on it. Same subset and rebuild rules
	// as want.
	esc []uint64
	// wheel clears pend and drain bits as their timers run out.
	wheel timerWheel
	// stale records that something other than a maintained fill/clear
	// may have changed what a buffered packet wants; the next sweep
	// rebuilds.
	stale bool
}

func (d *denseState) init(numNodes int) {
	d.occBits = make([]uint64, numNodes)
	d.want = make([][geom.NumPorts]uint64, numNodes)
	d.pend = make([]uint64, numNodes)
	d.drain = make([]uint64, numNodes)
	d.esc = make([]uint64, numNodes)
	d.wheel.init(numNodes, max(VCDepth, HopLatency))
}

// vnetBits returns the mask of the candidate indices whose slot belongs
// to vnet v, across all input ports (the bubble bit is excluded — its
// vnet is the occupant's, resolved at arbitration time), so the fused
// pass classifies grantability per vnet with one AND instead of touching
// each candidate's packet. vnet0Bits is vnet 0's: its lane at every
// port's slot offset.
func vnetBits(v int) uint64 { return vnet0Bits << uint(v*VCsPerVnet) }

const vnet0Bits uint64 = (1<<VCsPerVnet - 1) * ((1<<BubbleIndex - 1) / slotMask)

// setLanes derives lane from the class rules (classVCs): at New, and
// again when an escape class reserves its VC index.
func (s *Sim) setLanes() {
	for v := 0; v < NumVnets; v++ {
		for c := 0; c < 2; c++ {
			lo, hi, skip := s.classVCs(c == 1)
			var w uint64
			for i := lo; i < hi; i++ {
				if i != skip {
					w |= 1 << uint(v*VCsPerVnet+i)
				}
			}
			s.dense.lane[v<<1|c] = w
		}
	}
}

// timerWheel files buffers under the cycle their timer runs out. Every
// timer runs out at most maxAhead cycles after it is set (HopLatency for
// a head, VCDepth for a tail), so with W, the number of slots, a power
// of two above that, slot t&(W-1) holds exactly the
// timers due at cycle t: due[slot*n+id] the buffers of router id, and
// sum[slot*words+id>>6] bit id&63 a summary of the routers with any,
// laid out like the active set. All of it is allocated by init.
type timerWheel struct {
	mask     int64 // W-1
	n, words int
	due      []uint64
	sum      []uint64
	// done is the last cycle whose slot has been expired.
	done int64
}

func (w *timerWheel) init(numNodes, maxAhead int) {
	slots := 1 << bits.Len(uint(maxAhead))
	w.mask = int64(slots - 1)
	w.n, w.words = numNodes, (numNodes+63)>>6
	w.due = make([]uint64, slots*w.n)
	w.sum = make([]uint64, slots*w.words)
}

// schedule files the buffers of m at router id under cycle at.
func (w *timerWheel) schedule(id geom.NodeID, m uint64, at int64) {
	slot := int(at & w.mask)
	w.due[slot*w.n+int(id)] |= m
	w.sum[slot*w.words+int(id>>6)] |= 1 << (uint(id) & 63)
}

// cancel unfiles the buffers of m at router id from every slot (a stale
// summary bit only costs its slot's expiry a zero word).
func (w *timerWheel) cancel(id geom.NodeID, m uint64) {
	for i := int(id); i < len(w.due); i += w.n {
		w.due[i] &^= m
	}
}

// ExpireTimers clears the timer bits of every buffer whose timer has run
// out by cycle Now, so the fused pass finds a head ready and a drained
// buffer free exactly when their ReadyAt and FreeAt say so. Step runs it
// right after advancing the clock; a stepper of its own (the refmodel's
// full scan) must do the same. Cycles skipped by a direct write to Now
// are caught up.
func (s *Sim) ExpireTimers() {
	d := &s.dense
	w := &d.wheel
	if s.Now-w.done > w.mask+1 {
		w.done = s.Now - w.mask - 1
	}
	for w.done < s.Now {
		w.done++
		slot := int(w.done & w.mask)
		due := w.due[slot*w.n : (slot+1)*w.n]
		sum := w.sum[slot*w.words : (slot+1)*w.words]
		for i, word := range sum {
			if word == 0 {
				continue
			}
			sum[i] = 0
			for ; word != 0; word &= word - 1 {
				id := i<<6 | bits.TrailingZeros64(word)
				m := due[id]
				due[id] = 0
				d.pend[id] &^= m
				d.drain[id] &^= m
			}
		}
	}
}

// occBitSet / occBitClear maintain the slot-occupancy mirror, the request
// vectors and the timer words (and the fill cycle an attached escape
// class keeps per buffer). bit is the candidate index of the buffer being
// filled or emptied; readyAt and freeAt are the timer the caller has just
// written into it.
//
// occBitSet must run after p is in place at its new hop (buffer written,
// p.Hop advanced): it derives p's next hop at id.
func (s *Sim) occBitSet(id geom.NodeID, bit int, p *Packet, readyAt int64) {
	if e := s.escClass; e != nil {
		e.fill[int(id)*numCand+bit] = s.Now
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
	if readyAt > s.Now {
		d.pend[id] |= m
		d.wheel.schedule(id, m, readyAt)
	}
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
			h.mask[int(id)*numCand+ci] = mask
			return
		}
	} else {
		out = s.OutputOf(p, id)
	}
	if out != geom.Invalid {
		s.dense.want[id][out] |= m
	}
}

func (s *Sim) occBitClear(id geom.NodeID, bit int, freeAt int64) {
	d := &s.dense
	m := uint64(1) << uint(bit)
	d.occBits[id] &^= m
	d.esc[id] &^= m
	w := &d.want[id]
	for out := range w {
		w[out] &^= m
	}
	if h := s.hopClass; h != nil {
		h.choose[id] &^= m
	}
	if freeAt > s.Now {
		d.drain[id] |= m
		d.wheel.schedule(id, m, freeAt)
	}
}

// cancelTimer stops the timer buffer bit of router id is running, if
// any: for the out-of-band paths that overwrite a timer before it runs
// out (removing a head still in flight, placing a packet into a buffer
// still draining), whose wheel entry would otherwise clear a later
// timer's bit early.
func (s *Sim) cancelTimer(id geom.NodeID, bit int) {
	d := &s.dense
	m := uint64(1) << uint(bit)
	if (d.pend[id]|d.drain[id])&m == 0 {
		return
	}
	d.pend[id] &^= m
	d.drain[id] &^= m
	d.wheel.cancel(id, m)
}

// rebuildVectors derives router id's request vectors, pend (filing its
// timers on the wheel) and the hop class's word from its buffers: the
// definition the maintained copies must equal.
func (s *Sim) rebuildVectors(id geom.NodeID) {
	d := &s.dense
	r := &s.Routers[id]
	d.want[id], d.pend[id], d.esc[id] = [geom.NumPorts]uint64{}, 0, 0
	if h := s.hopClass; h != nil {
		h.choose[id] = 0
	}
	for w := d.occBits[id]; w != 0; w &= w - 1 {
		ci := bits.TrailingZeros64(w)
		m := uint64(1) << uint(ci)
		vc := r.Buf(ci)
		s.registerHop(id, ci, vc.Pkt)
		if vc.ReadyAt > s.Now {
			d.pend[id] |= m
			d.wheel.schedule(id, m, vc.ReadyAt)
		}
		if vc.Pkt.Escaped {
			d.esc[id] |= m
		}
	}
}

// syncVectors runs at the top of every sweep: it rebuilds the request
// vectors and pend from the buffers if they are stale, unfiling every
// occupied buffer's timer first (drain's timers, on empty buffers, stay
// filed).
func (s *Sim) syncVectors() {
	d := &s.dense
	if d.stale {
		due := d.wheel.due
		for base := 0; base < len(due); base += d.wheel.n {
			for id, occ := range d.occBits {
				due[base+id] &^= occ
			}
		}
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

// DrainVector returns router id's drain word (bit ci set iff buffer ci
// is empty with FreeAt > Now); it is live exactly when RequestVectors is.
func (s *Sim) DrainVector(id geom.NodeID) (drain uint64, live bool) {
	if !s.vectorsLive() {
		return 0, false
	}
	return s.dense.drain[id], true
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

// OccupancyMirror returns router id's occupancy word: bit ci is set iff
// buffer ci (Router.Buf) holds a packet. Schemes walk it to visit the
// buffered packets, and the validate package cross-checks it against
// the buffers — it feeds the FSM scan under the refmodel and under Step
// alike, so drift would not show up as a differential mismatch.
func (s *Sim) OccupancyMirror(id geom.NodeID) uint64 { return s.dense.occBits[id] }

// denseAllocNode is the fused switch-allocation pass for one router:
// gatherAllocate's candidate classification, read off the registered
// request vectors, and commitAllocate's round-robin arbitration in a
// single sweep over bitmasks, with no bucket building, no per-head work
// and no downstream buffer reads. Only valid with the vectors in sync
// (syncVectors); produces bit-for-bit the grants, Stats mutations and
// pool releases of AllocateNode.
func (s *Sim) denseAllocNode(id geom.NodeID) {
	if s.dense.occBits[id] == 0 || !s.Topo.RouterAlive(id) {
		// A dead router's buffered traffic cannot move; it stays in the
		// active set until a re-enable.
		return
	}
	r := &s.Routers[id]
	now := s.Now
	d := &s.dense
	const bubbleBit = uint64(1) << BubbleIndex

	// Classification (file comment): the desire masks are the want words
	// restricted to the buffers whose head has arrived.
	ready := d.occBits[id] &^ d.pend[id]
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
			from = slotMask << uint(int(f.In)*SlotsPerPort)
		}
		if r.Bubble.InPort == f.In {
			from |= bubbleBit
		}
		desire[f.Out] &= from
	}

	// Arbitration: per output, reduce the desire mask to the grantable
	// candidates — per (vnet, class), whether the neighbour's input port
	// has a free buffer that class may enter, or the neighbour's bubble is
	// eligible — then grant the first grantable candidate in cyclic order
	// from the round-robin pointer: exactly the winner commitAllocate's
	// rotate-and-scan converges on, since the candidates it would skip are
	// those tryGrant rejects.
	lane := &d.lane
	for _, out := range geom.AllPorts {
		m := desire[out]
		if m == 0 || r.OutFreeAt[out] > now {
			continue
		}
		eligible := m
		var busy uint64 // the neighbour's occupied or draining buffers
		var sh uint     // the neighbour's input port's first candidate index
		if out != geom.Local {
			if !s.Topo.HasLink(id, out) {
				continue
			}
			nb, in := s.Topo.Neighbor(id, out), out.Opposite()
			busy, sh = d.occBits[nb]|d.drain[nb], uint(int(in)*SlotsPerPort)
			if b := &s.Routers[nb].Bubble; !(b.Present && b.Active && b.InPort == in && busy&bubbleBit == 0) {
				eligible = 0
				ew := d.esc[id]
				for v := 0; v < NumVnets; v++ {
					vb := vnetBits(v)
					if reg := m & vb &^ ew; reg != 0 && lane[v<<1]<<sh&^busy != 0 {
						eligible |= reg
					}
					if esc := m & vb & ew; esc != 0 && lane[v<<1|1]<<sh&^busy != 0 {
						eligible |= esc
					}
				}
				if m&bubbleBit != 0 && lane[r.Bubble.VC.Pkt.Vnet<<1|int(ew>>BubbleIndex&1)]<<sh&^busy != 0 {
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
		dst := BubbleIndex // the downstream bubble, unless a buffer is free
		if out != geom.Local {
			c := int(d.esc[id] >> uint(ci) & 1)
			if free := lane[r.Buf(ci).Pkt.Vnet<<1|c] << sh &^ busy; free != 0 {
				dst = bits.TrailingZeros64(free)
			}
		}
		s.grant(r, out, ci, dst)
		r.saPtr[out] = (ci + 1) % numCand
	}
}

package network

// The stepper: one active-set sweep per cycle, and a fast-forward over
// cycles in which nothing can happen.
//
// A router is active while it holds a buffered packet (occ[id] != 0,
// regular VCs and the bubble) or has traffic queued at its NI
// (niPend[id] != 0 — a dead router polling for a re-enable included).
// The set is kept as a summary bitmap: every site that raises occ or
// niPend marks the router's bit (Enqueue, a grant's arrival at the
// downstream router, the placement helpers, RecountNIPending), and the
// sweep clears a bit when it finds both counters zero. Each non-quiet
// cycle runs the PreCycle hooks, walks the set bits in ascending router
// id, and runs inject / allocate / bubble-transfer over exactly those
// routers before the PostCycle hooks. The summary is also what a scheme
// may read in place of polling its routers (ActiveSummary): by the time
// the PostCycle hooks run it covers every router that holds or queues a
// packet, this cycle's arrivals included, and errs only towards routers
// that have just drained. core's FSM tick is driven by it.
//
// Byte-identity argument (stated once; dense.go and shard.go refer
// here). The sweep is the refmodel full scan with provably inert visits
// skipped. The set is collected after the PreCycle hooks; a router
// outside it has occ == 0 and empty NI rings at that instant, so the
// full scan's InjectNode there is a no-op, and its AllocateNode and
// TransferBubbleNode can only meet a packet that *arrives* later in the
// same cycle from an earlier-id router — a packet whose ReadyAt lies in
// the future, for which both primitives do nothing. Phase order (all
// injects, then all allocations, then all bubble transfers, ascending
// id within each) is the full scan's. The refmodel differential harness
// checks the result cycle by cycle at every shard count.
//
// Quiet epochs: when a cycle ends with an empty active set, every hook
// is covered by a quiescence registration and every registered horizon
// lies strictly in the future, Step fast-forwards — subsequent calls
// only advance Now until the proven horizon, or until a mutation from
// outside the cycle loop voids the proof. With no packet buffered or
// queued anywhere no router phase can change state, and each registered
// scheme promised (via its horizon) that with no packet movement it
// neither acts nor observes cycle-varying state before the horizon, so
// the skipped cycles are exactly those in which the full scan would
// have changed nothing.

import (
	"math"
	"math/bits"

	"repro/internal/geom"
)

// parallelMinActive is the active-router count above which a sharded
// cycle fans out to one goroutine per shard: two barrier crossings cost
// a few µs, 32 router visits cost well under that, so smaller cycles
// run the sequential sweep on the coordinator.
const parallelMinActive = 32

// StepperCounters returns the stepper path counters accumulated so far.
func (s *Sim) StepperCounters() StepperCounters { return s.ctr }

// RegisterQuiescence declares that nHooks of the attached
// PreCycle/PostCycle hooks belong to a scheme that is quiescent between
// its announced horizons: horizon (if non-nil) returns the earliest
// future cycle at which the scheme may act or observe state, given that
// no packet moves before it (return the current cycle to veto
// fast-forward). Quiet-epoch batching engages only when every attached
// hook is covered by a registration; schemes that cannot bound their
// next action simply do not register and cost nothing.
func (s *Sim) RegisterQuiescence(nHooks int, horizon func(*Sim) int64) {
	s.quiesced += nHooks
	if horizon != nil {
		s.horizonFns = append(s.horizonFns, horizon)
	}
}

// Wake tells the stepper that state it derives its work from changed
// behind its back: it voids any open quiet window and marks the
// registered request vectors stale, so the next fused sweep rebuilds
// them from the buffers (dense.go). The effect is global — n names where
// the change happened for the reader of the call site and is otherwise
// unused. The simulator's own entry points that add, move, remove,
// reroute or reclassify a packet (Enqueue, PlacePacket,
// PlaceBubblePacket, RemovePacket, DeliverOutOfBand, SetRoute,
// RecountNIPending, PromoteEscape, SetEscapeTree) look after
// themselves; call Wake after changing state a registered horizon or a
// router phase depends on through any other channel — re-enabling a
// router or link in the topology, clearing a fence, or moving buffered
// packets between occupied slots by hand (core's SPIN rotation rewrites
// vc.Pkt, ReadyAt and p.Hop along a chain). It does not make a packet
// written into an *empty* buffer visible to the stepper: occupancy is
// tracked by counters, so packets enter buffers only through Enqueue,
// PlacePacket or PlaceBubblePacket. Call it from the stepping goroutine
// (every hook runs there).
func (s *Sim) Wake(n geom.NodeID) {
	s.quietUntil = 0
	s.dense.stale = true
}

// markActive adds router id to the active set. Bits live at actPos[id]:
// each shard band owns whole words of the bitmap (bands are padded to
// word boundaries), so marks issued by concurrent shard workers for
// their own routers never share a word.
func (s *Sim) markActive(id geom.NodeID) {
	b := uint(s.actPos[id])
	s.active[b>>6] |= 1 << (b & 63)
}

// ActiveMarked reports whether router id's bit is set in the active
// summary. Exposed for the validate package: between cycles the summary
// must cover every router with a buffered or queued packet, and a
// missed bit is a stranded packet the differential harness would only
// catch late.
func (s *Sim) ActiveMarked(id geom.NodeID) bool {
	b := uint(s.actPos[id])
	return s.active[b>>6]>>(b&63)&1 != 0
}

// ActiveSummary returns the active summary itself: the live bitmap words
// and, per router id, its bit position in them (ascending in id; shard
// bands pad to word boundaries, so position and id differ on a sharded
// Sim). Read-only for callers, and stable for the Sim's lifetime. A
// scheme that keeps per-router masks in the same positions can ask "which
// of my routers hold or queue a packet" one word per 64 routers instead
// of polling each; the file header says what the bits promise when.
func (s *Sim) ActiveSummary() (words []uint64, pos []int32) { return s.active, s.actPos }

// collectActive materializes this cycle's active set in ascending id
// order into s.ids (each shard's ids is its band's sub-slice), retiring
// routers whose counters have both returned to zero.
func (s *Sim) collectActive() {
	ids := s.ids[:0]
	for k := range s.shards {
		sh := &s.shards[k]
		start := len(ids)
		for w := sh.wlo; w < sh.whi; w++ {
			word := s.active[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				id := int32(w<<6+b) - sh.pad
				if s.occ[id] == 0 && s.niPend[id] == 0 {
					s.active[w] &^= 1 << uint(b)
					continue
				}
				ids = append(ids, id)
			}
		}
		sh.ids = ids[start:len(ids):len(ids)]
	}
	s.ids = ids
}

// Step advances the simulation by one cycle: hooks, then the phases
// over the active set in ascending id order — the order the naive
// stepper visits routers, so the two cores are cycle-exact. A swept
// cycle is either fused (fusedAlloc: no allocation hook, slot space fits
// a word) — and then a busy cycle on a sharded Sim fans out to the shard
// workers (shard.go) — or it is the plain sequential sweep. That one
// predicate is why every hook runs on the stepping goroutine.
func (s *Sim) Step() {
	if s.Now < s.quietUntil {
		s.Now++
		s.ctr.QuietCycles++
		return
	}
	for _, f := range s.PreCycle {
		f(s)
	}
	s.collectActive()
	if len(s.shards) > 1 && len(s.ids) > parallelMinActive && s.fusedAlloc() {
		s.sweepParallel()
	} else {
		s.sweep()
	}
	for _, f := range s.PostCycle {
		f(s)
	}
	s.Now++
	s.ctr.DenseCycles++
	if len(s.ids) == 0 {
		s.maybeQuiet()
	}
}

// sweep runs the three phases over the active set on the calling
// goroutine.
func (s *Sim) sweep() {
	fused := s.syncVectors()
	var inj injectDelta
	for _, id := range s.ids {
		if s.niPend[id] != 0 {
			s.injectNode(geom.NodeID(id), &inj)
		}
	}
	inj.apply(s)
	if fused {
		for _, id := range s.ids {
			s.denseAllocNode(geom.NodeID(id), nil)
		}
	} else {
		for _, id := range s.ids {
			s.AllocateNode(geom.NodeID(id))
		}
	}
	s.transferBubbles()
}

// transferBubbles runs the bubble-transfer phase over the active set.
// The mirror's bubble bit is TransferBubbleNode's occupancy early-out:
// consult it from the flat word array instead of striding through each
// Router struct.
func (s *Sim) transferBubbles() {
	ob, bb := s.dense.occBits, uint64(1)<<uint(s.dense.total)
	for _, id := range s.ids {
		if ob == nil || ob[id]&bb != 0 {
			s.TransferBubbleNode(geom.NodeID(id))
		}
	}
}

// maybeQuiet attempts to open a quiet epoch after a cycle that swept
// nothing: if no hook marked a router since, every hook is registered
// and the minimum H over the registered horizons is still in the
// future, mark [Now, H) quiet.
func (s *Sim) maybeQuiet() {
	if s.quiesced != len(s.PreCycle)+len(s.PostCycle) {
		return
	}
	for _, w := range s.active {
		if w != 0 {
			return
		}
	}
	h := int64(math.MaxInt64)
	for _, f := range s.horizonFns {
		if v := f(s); v < h {
			h = v
		}
		if h <= s.Now {
			return
		}
	}
	s.quietUntil = h
}

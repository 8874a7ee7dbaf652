package network

// The stepper: one active-set sweep per cycle.
//
// A router is active while it holds a buffered packet (occBits[id] != 0,
// regular VCs and the bubble) or has traffic queued at its NI
// (niPend[id] != 0 — a dead router polling for a re-enable included).
// The set is kept as a summary bitmap: every site that fills a buffer or
// raises niPend marks the router's bit (Enqueue, a grant's arrival at the
// downstream router, the placement helpers), and the sweep clears a bit
// when it finds both zero. Every cycle
// runs the PreCycle hooks, walks the set bits in ascending router
// id, and runs inject / allocate / bubble-transfer over exactly those
// routers before the PostCycle hooks. The summary is also what a scheme
// may read in place of polling its routers (ActiveSummary): by the time
// the PostCycle hooks run it covers every router that holds or queues a
// packet, this cycle's arrivals included, and errs only towards routers
// that have just drained. core's FSM tick is driven by it.
//
// Byte-identity argument (stated once; dense.go refers here). The sweep
// is the refmodel full scan with provably inert visits skipped. The set
// is collected after the PreCycle hooks; a router outside it has
// occBits[id] == 0 and empty NI rings at that instant, so the full scan's
// InjectNode there is a no-op, and its AllocateNode and
// TransferBubbleNode can only meet a packet that *arrives* later in the
// same cycle from an earlier-id router — a packet whose ReadyAt lies in
// the future, for which both primitives do nothing. Phase order (all
// injects, then all allocations, then all bubble transfers, ascending
// id within each) is the full scan's. The refmodel differential harness
// checks the result cycle by cycle.
//
// Downstream availability. The fused pass (dense.go) reads it off the
// neighbour's occupancy and drain words at the moment it arbitrates each
// output — the same instant the refmodel's tryGrant scans the buffers,
// and the words equal Empty(now) for every buffer at every instant, so
// the two agree without further argument. The hop class counts free VCs
// once per (direction, vnet) per visit, before any of the router's
// grants; the refmodel counts per packet. They agree because the pool
// behind output out — input port out.Opposite() of the neighbour — is
// filled only by this router, its unique upstream on that port (the
// downstream bubble admits only packets arriving on its InPort, so it
// has one writer too). Injection fills local ports and bubble transfers
// run after every allocation. Every other grant only drains the pool,
// and a drained VC advertises FreeAt = now+len, so it stays non-Empty
// for the rest of the cycle. A count taken anywhere in this router's
// visit before its own grant through out is therefore the refmodel's.
//
// Timers. Step expires the buffer timers (ExpireTimers, dense.go) right
// after it advances the clock, so between cycles and throughout the next
// one the pend and drain words equal the VC timers; the refmodel's full
// scan does the same.

import (
	"math/bits"

	"repro/internal/geom"
)

// StepperCounters returns the stepper path counters accumulated so far.
func (s *Sim) StepperCounters() StepperCounters { return s.ctr }

// markActive adds router id to the active set: bit id of the summary.
func (s *Sim) markActive(id geom.NodeID) {
	s.active[id>>6] |= 1 << (uint(id) & 63)
}

// ActiveMarked reports whether router id's bit is set in the active
// summary. Exposed for the validate package: between cycles the summary
// must cover every router with a buffered or queued packet, and a
// missed bit is a stranded packet the differential harness would only
// catch late.
func (s *Sim) ActiveMarked(id geom.NodeID) bool {
	return s.active[id>>6]>>(uint(id)&63)&1 != 0
}

// ActiveSummary returns the active summary itself: the live bitmap words,
// router id at bit id. Read-only for callers, and stable for the Sim's
// lifetime. A scheme that keeps per-router masks in the same positions
// can ask "which of my routers hold or queue a packet" one word per 64
// routers instead of polling each. A clear bit promises occBits[id] == 0
// and empty NI rings; the file header says when.
func (s *Sim) ActiveSummary() []uint64 { return s.active }

// collectActive materializes this cycle's active set in ascending id
// order into s.ids, retiring routers with no buffered and no queued
// packet.
func (s *Sim) collectActive() {
	ids := s.ids[:0]
	for w, word := range s.active {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			id := int32(w<<6 + b)
			if s.dense.occBits[id] == 0 && s.niPend[id] == 0 {
				s.active[w] &^= 1 << uint(b)
				continue
			}
			ids = append(ids, id)
		}
	}
	s.ids = ids
}

// Step advances the simulation by one cycle: hooks, then the phases
// over the active set in ascending id order — the order the naive
// stepper visits routers, so the two cores are cycle-exact. A swept
// cycle allocates through the fused pass (dense.go); the refmodel's
// AllocateNode is its reference.
func (s *Sim) Step() {
	for _, f := range s.PreCycle {
		f(s)
	}
	s.collectActive()
	for _, id := range s.ids {
		if s.niPend[id] != 0 {
			s.InjectNode(geom.NodeID(id))
		}
	}
	for _, id := range s.ids {
		s.denseAllocNode(geom.NodeID(id))
	}
	s.transferBubbles()
	for _, f := range s.PostCycle {
		f(s)
	}
	s.Now++
	s.ExpireTimers()
	s.ctr.DenseCycles++
}

// transferBubbles runs the bubble-transfer phase over the active set.
// The mirror's bubble bit is TransferBubbleNode's occupancy early-out:
// consult it from the flat word array instead of striding through each
// Router struct.
func (s *Sim) transferBubbles() {
	ob, bb := s.dense.occBits, uint64(1)<<BubbleIndex
	for _, id := range s.ids {
		if ob[id]&bb != 0 {
			s.TransferBubbleNode(geom.NodeID(id))
		}
	}
}

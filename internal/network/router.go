package network

import (
	"repro/internal/geom"
)

// Fence is the runtime injection restriction installed by a disable
// message (the is_deadlock mechanism, paper Section IV-A2): while active,
// only traffic from input port In may be switched to output port Out,
// fencing the detected dependency chain off from new packets.
type Fence struct {
	Active bool
	In     geom.Direction
	Out    geom.Direction
	// SrcID is the static-bubble router that installed the fence; only a
	// matching enable clears it.
	SrcID geom.NodeID
}

// Bubble is the optional extra packet buffer of a static-bubble router.
// It is off until the recovery FSM activates it, at which point it acts
// as one additional VC on input port InPort, usable by any vnet.
type Bubble struct {
	// Present marks this router as chosen by the placement algorithm.
	Present bool
	// Active is set while the FSM has the bubble switched on.
	Active bool
	// InPort is the input port the bubble serves while active (the input
	// side of the IO-priority buffer).
	InPort geom.Direction
	VC     VC
}

// EligibleFor reports whether the bubble can accept a packet arriving on
// input port `in` at cycle now.
func (b *Bubble) EligibleFor(in geom.Direction, now int64) bool {
	return b.Present && b.Active && b.InPort == in && b.VC.Empty(now)
}

// Router is the per-node switch state. In[port] holds the input VCs,
// indexed vnet*VCsPerVnet+vc. OutFreeAt[port] is the earliest cycle a new
// packet grant may start on that output (links and the ejection port are
// busy for Len cycles per packet).
type Router struct {
	ID        geom.NodeID
	In        [geom.NumPorts][]VC
	OutFreeAt [geom.NumPorts]int64
	Fence     Fence
	Bubble    Bubble

	saPtr [geom.NumPorts]int
	// bufs holds the router's input VCs in candidate-index order
	// (in*slots+sl); In[port] are its sub-slices, so a candidate index
	// addresses its buffer directly.
	bufs []VC
	// sim points back to the owning Sim: the hot per-router counters
	// (occupancy, grants) live there in struct-of-arrays layout and are
	// reached through it by the accessors below.
	sim *Sim
}

// Occupied returns the number of packets buffered at this router
// (including the bubble).
func (r *Router) Occupied() int { return int(r.sim.occ[r.ID]) }

// OccupiedNonLocal returns the number of packets buffered at non-local
// input ports (including the bubble) — the candidates a detection FSM
// watches.
func (r *Router) OccupiedNonLocal() int { return int(r.sim.occNL[r.ID]) }

// Grants counts switch-allocation grants issued by this router over its
// lifetime (including ejections) — a local progress signal used by the
// recovery liveness guards.
func (r *Router) Grants() int64 { return r.sim.grantN[r.ID] }

// VCAt returns the VC at input port in, vnet, index vc.
func (r *Router) VCAt(in geom.Direction, vnet, vc int) *VC {
	return &r.In[in][vnet*VCsPerVnet+vc]
}

// AllocateNode performs one cycle of switch allocation at router id —
// the allocation phase for a single node: for each output port, at most
// one waiting packet is granted, chosen round-robin among eligible input
// VCs, subject to the fence, link bandwidth, and downstream buffer
// availability (virtual cut-through: the downstream VC must be able to
// hold the whole packet).
//
// It is the refmodel full scan's allocator, the reference Step's fused
// pass (dense.go) must equal: gatherAllocate buckets and prunes the
// candidates, commitAllocate arbitrates and moves packets. Its grants
// fill and clear buffers through the same sites, so the request vectors
// stay maintained.
func (s *Sim) AllocateNode(id geom.NodeID) {
	if s.gatherAllocate(id, &s.seqGather) {
		s.commitAllocate(id, &s.seqGather)
	}
}

// allocGather is one router's switch-allocation scratch: per-output
// candidate buckets (ascending candidate index: in*slots+sl, or
// NumPorts*slots for the bubble).
type allocGather struct {
	cand [geom.NumPorts][]int32
}

func (g *allocGather) init() {
	for i := range g.cand {
		g.cand[i] = make([]int32, 0, numCand)
	}
}

// candVC resolves a candidate index to its buffer.
func (r *Router) candVC(ci int) *VC {
	if ci < len(r.bufs) {
		return &r.bufs[ci]
	}
	return &r.Bubble.VC
}

// gatherAllocate buckets router id's ready heads by desired output and
// prunes buckets that cannot possibly be granted, returning whether a
// commit pass is needed. Downstream buffer occupancy is monotone during
// allocation (a VC emptied by a grant stays unusable until FreeAt, so
// "empty now" can only become false), so pruning on it is conservative:
// a pruned candidate could never be granted, and a kept candidate is
// re-validated by tryGrant. The pruning carries the load in a
// deadlock storm, where most ready heads have no free downstream buffer
// and the router never reaches the commit.
func (s *Sim) gatherAllocate(id geom.NodeID, g *allocGather) bool {
	r := &s.Routers[id]
	if s.occ[id] == 0 || !s.Topo.RouterAlive(id) {
		// Buffered traffic at a dead router cannot move.
		return false
	}
	for i := range g.cand {
		g.cand[i] = g.cand[i][:0]
	}
	for in := 0; in < geom.NumPorts; in++ {
		vcs := r.In[in]
		for sl := range vcs {
			vc := &vcs[sl]
			if vc.Pkt == nil || vc.ReadyAt > s.Now {
				continue
			}
			out := s.OutputOf(vc.Pkt, id)
			if out == geom.Invalid ||
				(r.Fence.Active && out == r.Fence.Out && geom.Direction(in) != r.Fence.In) {
				continue
			}
			g.cand[out] = append(g.cand[out], int32(in*SlotsPerPort+sl))
		}
	}
	if b := &r.Bubble; b.Present && b.VC.Pkt != nil && b.VC.ReadyAt <= s.Now {
		out := s.OutputOf(b.VC.Pkt, id)
		if out != geom.Invalid &&
			!(r.Fence.Active && out == r.Fence.Out && b.InPort != r.Fence.In) {
			g.cand[out] = append(g.cand[out], bubbleCI)
		}
	}
	work := false
	for _, out := range geom.AllPorts {
		cands := g.cand[out]
		if len(cands) == 0 {
			continue
		}
		if r.OutFreeAt[out] > s.Now || (out != geom.Local && !s.Topo.HasLink(id, out)) {
			g.cand[out] = cands[:0]
			continue
		}
		if out != geom.Local {
			// Keep only candidates with a downstream buffer free right
			// now (ejection always has room once the port is idle).
			nb := s.Topo.Neighbor(id, out)
			in := out.Opposite()
			bubbleOK := s.Routers[nb].Bubble.EligibleFor(in, s.Now)
			keep := cands[:0]
			for _, ci := range cands {
				vc := r.candVC(int(ci))
				if bubbleOK || s.findFreeVC(nb, in, vc.Pkt, vc.Pkt.Vnet) >= 0 {
					keep = append(keep, ci)
				}
			}
			g.cand[out] = keep
		}
		if len(g.cand[out]) > 0 {
			work = true
		}
	}
	return work
}

// commitAllocate arbitrates router id's gathered candidate buckets and
// moves the winners: per output, the first candidate in cyclic index
// order from saPtr that tryGrant, which re-validates downstream space,
// can move.
func (s *Sim) commitAllocate(id geom.NodeID, g *allocGather) {
	r := &s.Routers[id]
	for _, out := range geom.AllPorts {
		cands := g.cand[out]
		n := len(cands)
		if n == 0 {
			continue
		}
		// Rotate to the first candidate at or past the round-robin
		// pointer (candidates are in ascending index order).
		start := 0
		for i, ci := range cands {
			if int(ci) >= r.saPtr[out] {
				start = i
				break
			}
		}
		for k := 0; k < n; k++ {
			ci := cands[(start+k)%n]
			if s.tryGrant(r, out, int(ci)) {
				r.saPtr[out] = (int(ci) + 1) % numCand
				break
			}
		}
	}
}

// TransferBubbleNode slides router id's bubble occupant into a free
// regular VC of its vnet at the same input port, when one exists (paper
// footnote 6: a chain packet advancing vacates a VC at the port; the
// bubble occupant moves there, freeing the bubble for reclaim). Without
// this path a packet wedged in the bubble would block every later
// recovery at the router.
func (s *Sim) TransferBubbleNode(id geom.NodeID) {
	b := &s.Routers[id].Bubble
	if !b.Present || b.VC.Pkt == nil || b.VC.ReadyAt > s.Now {
		return
	}
	p := b.VC.Pkt
	slot := s.findFreeVC(id, b.InPort, p, p.Vnet)
	if slot < 0 {
		return
	}
	vc := &s.Routers[id].In[b.InPort][slot]
	vc.Pkt = p
	vc.ReadyAt = s.Now + 1
	s.occBitSet(id, int(b.InPort)*SlotsPerPort+slot, p, vc.ReadyAt)
	b.VC.Pkt = nil
	b.VC.FreeAt = s.Now + 1
	s.occBitClear(id, bubbleCI, b.VC.FreeAt)
	s.Stats.BubbleTransfers++
	s.LastProgress = s.Now
}

// tryGrant moves the packet in router r's buffer ci (a candidate index)
// out through output port out: ejection when out is Local, else into the
// first free downstream VC of its vnet and class, or failing that an
// eligible static bubble. Returns false, changing nothing, if no
// downstream buffer is available. It scans the downstream buffers
// themselves — the reference answer the fused pass reads off words —
// and ends in the one grant body.
func (s *Sim) tryGrant(r *Router, out geom.Direction, ci int) bool {
	dst := 0
	if out != geom.Local {
		p := r.candVC(ci).Pkt
		nb, in := s.Topo.Neighbor(r.ID, out), out.Opposite()
		if slot := s.findFreeVC(nb, in, p, p.Vnet); slot >= 0 {
			dst = int(in)*SlotsPerPort + slot
		} else if s.Routers[nb].Bubble.EligibleFor(in, s.Now) {
			dst = bubbleCI
		} else {
			return false
		}
	}
	s.grant(r, out, ci, dst)
	return true
}

// grant moves the packet in router r's buffer ci out through output port
// out: ejection when out is Local, else into the neighbour's buffer dst
// (a candidate index there; the bubble's for a bubble occupancy), which
// the caller has found free.
func (s *Sim) grant(r *Router, out geom.Direction, ci, dst int) {
	vc := r.candVC(ci)
	p := vc.Pkt
	length := int64(p.Len)
	// A regular buffer's input port is Local iff its index is past the
	// link ports'; the bubble's is its InPort.
	nonLocal := ci < int(geom.Local)*SlotsPerPort ||
		(ci == bubbleCI && r.Bubble.InPort != geom.Local)
	s.grantN[r.ID]++
	vc.Pkt = nil
	vc.FreeAt = s.Now + length
	s.occBitClear(r.ID, ci, vc.FreeAt)
	if out == geom.Local {
		r.OutFreeAt[geom.Local] = s.Now + length
		p.DeliveredAt = s.Now + RouterLatency + length - 1
		s.Stats.DeliveredFlits += length
		s.Stats.recordDelivery(p)
		if s.OnDeliver != nil {
			s.OnDeliver(p)
		}
		s.inFlight--
		s.occ[r.ID]--
		if nonLocal {
			s.occNL[r.ID]--
		}
		s.LastProgress = s.Now
		s.releasePacket(p)
		return
	}
	nb := s.Topo.Neighbor(r.ID, out)
	to := s.Routers[nb].candVC(dst)
	if dst == bubbleCI {
		s.Stats.BubbleOccupancies++
	}
	to.Pkt = p
	to.ReadyAt = s.Now + HopLatency
	p.Hop++
	s.occBitSet(nb, dst, p, to.ReadyAt) // after the move: it derives p's next hop at nb
	r.OutFreeAt[out] = s.Now + length
	s.Stats.LinkCycles[ClassFlit] += length
	s.Stats.HopMoves++
	s.occ[r.ID]--
	if nonLocal {
		s.occNL[r.ID]--
	}
	s.occ[nb]++
	s.occNL[nb]++ // arrivals always land on a link-side port
	s.markActive(nb)
	s.LastProgress = s.Now
}

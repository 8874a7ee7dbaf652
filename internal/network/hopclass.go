package network

// The hop class: per-hop adaptive minimal routing (internal/adaptive) as
// data the allocator reads instead of a hook it must call. With a class
// attached every packet's next hop at a router is a function of the
// class's mask table and of the free downstream buffers of the packet's
// vnet (hopOutput below is the definition; OutputOf defers to it), and
// packets need carry no source route. Most of that is static for as long
// as a packet sits in a buffer — its destination, and hence its mask,
// does not change — so the registered request vectors (dense.go) record
// at fill time everything but the congestion tie-break: a packet at its
// destination, or with a single minimal direction, gets an ordinary want
// bit, and only a packet with several minimal directions is filed under
// the class's own per-router "choose per visit" word, its mask byte
// beside it. The fused pass resolves those buffers once their head has
// arrived, each visit, from a free-buffer count memoised per (direction,
// vnet). The memoised count is the refmodel's per-packet count: this
// router reads it before its own first grant of the cycle, and nothing
// else fills the buffers it counts (stepper.go, downstream
// availability).

import (
	"math/bits"

	"repro/internal/geom"
)

// HopMasker is a hop class's route source: bit i of NextHopMask(at, dst)
// is set iff geom.LinkDirs[i] is a minimal next hop from at toward dst;
// zero at the destination and when dst is unreachable. The lookup must be
// a pure function of its arguments for as long as the value is attached
// (a MinimalFor *routing.Minimal, an immutable compiled table, is).
type HopMasker interface {
	NextHopMask(at, dst geom.NodeID) uint8
}

type hopClass struct {
	masker HopMasker
	// choose[id] has bit ci set iff buffer ci of router id holds a packet
	// with more than one minimal direction, and mask[id*numCand+ci] is then
	// that packet's mask (meaningless under a clear bit). Written where
	// want is (occBitSet, occBitClear, reregister), and disjoint
	// from every want word: a buffer is registered in one or the other.
	choose []uint64
	mask   []uint8
}

// AttachHopClass routes every packet per hop over masker's minimal
// directions, ties broken towards the direction with the most free
// downstream buffers (hopOutput). It outranks source routes; an escape
// class promotes packets onto a tree the hop class would ignore, so the
// two refuse to share a Sim.
func (s *Sim) AttachHopClass(masker HopMasker) {
	if s.hopClass != nil {
		panic("network: hop class already attached")
	}
	if s.escClass != nil {
		panic("network: a hop class cannot share a Sim with an escape class")
	}
	h := &hopClass{masker: masker}
	h.choose = make([]uint64, len(s.Routers))
	h.mask = make([]uint8, len(s.Routers)*numCand)
	s.hopClass = h
	s.reregisterAll()
}

// HopClass returns the attached hop class's mask source, with ok false
// when none is attached.
func (s *Sim) HopClass() (masker HopMasker, ok bool) {
	if s.hopClass == nil {
		return nil, false
	}
	return s.hopClass.masker, true
}

// HopVectors returns the hop class's registered state beside the request
// vectors: choose[id] is router id's "choose per visit" word and
// masks[id*(NumPorts*SlotsPerPort+1)+ci] the mask byte of a buffer whose
// bit is set there; both nil without a class. Exposed for the validate
// package; the slices alias simulator state and must not be written.
func (s *Sim) HopVectors() (choose []uint64, masks []uint8) {
	if s.hopClass == nil {
		return nil, nil
	}
	return s.hopClass.choose, s.hopClass.mask
}

// hopOf splits p's next hop at router at into the part that holds while p
// stays buffered there: (Local, 0) at the destination, (Invalid, 0) when
// no minimal direction exists — the packet parks until the reconfig layer
// repairs the table; falling back to the (empty) source route would
// misdeliver it here — (d, 0) for a single minimal direction, and
// (Invalid, mask) when several are minimal and the choice is per visit.
func (h *hopClass) hopOf(p *Packet, at geom.NodeID) (geom.Direction, uint8) {
	if at == p.Dst {
		return geom.Local, 0
	}
	m := h.masker.NextHopMask(at, p.Dst)
	if m&(m-1) != 0 {
		return geom.Invalid, m
	}
	if m == 0 {
		return geom.Invalid, 0
	}
	return geom.Direction(bits.TrailingZeros8(m)), 0
}

// hopOutput is the class's routing rule, OutputOf for every packet: the
// fixed hop where there is one, else the minimal direction whose
// downstream input port has the most free buffers of p's vnet right now.
func (s *Sim) hopOutput(p *Packet, at geom.NodeID) geom.Direction {
	out, mask := s.hopClass.hopOf(p, at)
	if mask == 0 {
		return out
	}
	var free [geom.NumLinkDirs]int8
	s.hopFree(at, p.Vnet, mask, &free)
	return hopBest(mask, &free)
}

// hopFree counts, for each direction of mask, the free buffers of vnet at
// the input port a packet leaving router at that way would enter: the
// vnet's slots there less the neighbour's occupied and draining ones,
// which is Empty(Now) for every buffer at once (dense.go). A mask bit
// onto a link disabled since the table was compiled still names the mesh
// neighbour; the allocator prunes the candidate on HasLink.
func (s *Sim) hopFree(at geom.NodeID, vnet int, mask uint8, free *[geom.NumLinkDirs]int8) {
	const lane = 1<<VCsPerVnet - 1
	d := &s.dense
	for m := mask; m != 0; m &= m - 1 {
		dir := geom.Direction(bits.TrailingZeros8(m))
		nb := s.Topo.Neighbor(at, dir)
		sh := uint(int(dir.Opposite())*SlotsPerPort + vnet*VCsPerVnet)
		free[dir] = int8(bits.OnesCount64(lane << sh &^ (d.occBits[nb] | d.drain[nb])))
	}
}

// hopBest picks the direction of mask with the most free buffers. Mask
// bits enumerate in N,E,S,W order and only a strictly greater count
// displaces the choice, so equally free directions resolve to the
// earliest.
func hopBest(mask uint8, free *[geom.NumLinkDirs]int8) geom.Direction {
	best, bestFree := geom.Invalid, int8(-1)
	for m := mask; m != 0; m &= m - 1 {
		if d := bits.TrailingZeros8(m); free[d] > bestFree {
			best, bestFree = geom.Direction(d), free[d]
		}
	}
	return best
}

// hopResolve is the fused pass's share of the rule: fold each buffer of
// cw — router id's choose-per-visit buffers whose head has arrived — into
// the desire mask of the direction hopOutput would return for its packet.
// A regular buffer's vnet is its candidate index's, so the buffers are
// taken a vnet at a time and each (direction, vnet) is counted at most
// once per visit; the bubble's vnet is its occupant's.
func (s *Sim) hopResolve(id geom.NodeID, cw uint64, desire *[geom.NumPorts]uint64) {
	h := s.hopClass
	masks := h.mask[int(id)*numCand : int(id+1)*numCand]
	var free [geom.NumLinkDirs]int8
	for v := 0; v < NumVnets; v++ {
		g := cw & vnetBits(v)
		if g == 0 {
			continue
		}
		var counted uint8
		for ; g != 0; g &= g - 1 {
			ci := bits.TrailingZeros64(g)
			m := masks[ci]
			if need := m &^ counted; need != 0 {
				s.hopFree(id, v, need, &free)
				counted |= need
			}
			desire[hopBest(m, &free)] |= 1 << uint(ci)
		}
	}
	if cw>>BubbleIndex&1 != 0 {
		m := masks[BubbleIndex]
		s.hopFree(id, s.Routers[id].bufs[BubbleIndex].Pkt.Vnet, m, &free)
		desire[hopBest(m, &free)] |= 1 << BubbleIndex
	}
}

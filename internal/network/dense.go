package network

// The slot-occupancy mirror and the fused bitset allocation pass.
//
// denseAllocNode is gatherAllocate+commitAllocate with the bucket
// indirection removed: candidate heads fold into per-output uint64
// desire masks (candidate index in*slots+sl, the bubble at bit
// `total`), round-robin arbitration walks the mask cyclically from
// saPtr with TrailingZeros64, and downstream buffer availability is
// memoized per (output, vnet) instead of re-scanned per candidate — the
// dominant cost of gatherAllocate under congestion. The mask holds
// exactly the gather's candidate set (same fence, liveness, readiness
// and output filters, in the same ascending candidate order), the
// cyclic mask walk visits candidates in the same order commitAllocate's
// rotate-and-scan does, the memoized free-slot answer equals tryGrant's
// own re-scan (no mutation can intervene: within one router's pass each
// output port targets a distinct neighbor), and a candidate is skipped
// exactly when tryGrant would have returned false. The winner moves
// through the very same tryGrant the generic commit uses.
//
// The fused pass runs when no allocation hook is installed and the slot
// space fits a word (fusedAlloc) — VCFilter, GrantFilter, OutputOverride
// and OnGrant may each consult per-packet or mid-phase state the fused
// pass does not reproduce; with any of them present the sweep calls the
// generic AllocateNode per active router instead. That is the one
// selection the stepper makes, from what the code observes.

import (
	"math/bits"

	"repro/internal/geom"
)

// denseState holds the fused pass's per-Config constants and the
// slot-occupancy mirror.
type denseState struct {
	// fastOK gates the fused allocation pass on the candidate space
	// fitting one uint64 mask (bubble included); larger configurations
	// take the generic AllocateNode per active router.
	fastOK bool
	// vnetBits[v] masks the candidate indices whose slot belongs to vnet
	// v (across all input ports; the bubble bit is excluded — its vnet is
	// the occupant's, resolved at arbitration time). Static for a given
	// Config, so the fused pass classifies grantability per vnet with one
	// AND instead of touching each candidate's packet.
	vnetBits []uint64
	// slots/total/slotMask cache SlotsPerPort-derived constants for the
	// per-router fused pass (valid only when fastOK).
	slots    int
	total    int
	slotMask uint64
	// occBits[id] mirrors router id's buffer occupancy at slot
	// granularity: bit ci (= in*slots+sl, bubble at NumPorts*slots) is
	// set iff that buffer holds a packet. Maintained by every fill/clear
	// site in the package (tryGrant, grantPar, injectNode, bubble
	// transfer, placement and removal helpers); nil when the candidate
	// space does not fit a word (fastOK false). The fused classification
	// walks only the set bits, so a barely-occupied router costs its
	// occupancy, not its capacity. SPIN rotations (core) move packets
	// between slots that stay occupied, so they preserve the bitmap
	// without knowing about it.
	occBits []uint64
}

func (d *denseState) init(numNodes int, cfg Config) {
	slots := cfg.SlotsPerPort()
	d.fastOK = geom.NumPorts*slots+1 <= 64
	if !d.fastOK {
		return
	}
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
}

// occBitSet / occBitClear maintain the slot-occupancy mirror. bit is the
// candidate index of the buffer being filled or emptied. No-ops when the
// mirror is disabled (candidate space wider than a word).
func (s *Sim) occBitSet(id geom.NodeID, bit int) {
	if s.dense.occBits != nil {
		s.dense.occBits[id] |= 1 << uint(bit)
	}
}

func (s *Sim) occBitClear(id geom.NodeID, bit int) {
	if s.dense.occBits != nil {
		s.dense.occBits[id] &^= 1 << uint(bit)
	}
}

// occBitClearVC is occBitClear for callers holding only the buffer
// pointer (the rare out-of-band removal paths): the slot is recovered by
// scanning the port's VC array, falling back to the bubble bit.
func (s *Sim) occBitClearVC(id geom.NodeID, port geom.Direction, vc *VC) {
	if s.dense.occBits == nil {
		return
	}
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
// (bit in*slots+sl per buffer, bubble at NumPorts*slots), with ok false
// when the mirror is disabled. Exposed for the validate package, which
// cross-checks the mirror against actual buffer contents — the mirror
// feeds the FSM scan fast path under the refmodel and under Step alike,
// so drift would not show up as a differential mismatch.
func (s *Sim) OccupancyMirror(id geom.NodeID) (uint64, bool) {
	if s.dense.occBits == nil {
		return 0, false
	}
	return s.dense.occBits[id], true
}

// OccupiedScanWord returns the router's non-local occupancy as a bit
// word in the deadlock-detection FSM's cyclic scan order — bit
// in*slots+sl is set iff link-input slot (in, sl) holds a packet, and
// bit NumLinkDirs*slots iff the static bubble is present and occupied —
// with ok true when the occupancy mirror is enabled. It lets the FSM's
// "next occupied VC after X" round-robin resolve with two
// TrailingZeros64 instead of a slot-by-slot scan; callers must keep the
// slot-scan fallback for configurations too wide for the mirror.
func (r *Router) OccupiedScanWord() (uint64, bool) {
	s := r.sim
	occBits := s.dense.occBits
	if occBits == nil {
		return 0, false
	}
	d := &s.dense
	link := uint(geom.NumLinkDirs * d.slots)
	w := occBits[r.ID] & (uint64(1)<<link - 1)
	if r.Bubble.Present && occBits[r.ID]>>uint(d.total)&1 != 0 {
		w |= 1 << link
	}
	return w, true
}

// fusedAlloc reports whether the fused allocation pass may run: no
// allocation hook that could veto or observe per-candidate decisions is
// installed, and the candidate space fits the mask.
func (s *Sim) fusedAlloc() bool {
	return s.dense.fastOK && s.VCFilter == nil && s.GrantFilter == nil &&
		s.OutputOverride == nil && s.OnGrant == nil
}

// denseAllocNode is the fused switch-allocation pass for one router:
// gatherAllocate's candidate classification and commitAllocate's
// round-robin arbitration in a single sweep over bitmasks, with no
// bucket building and no per-candidate downstream re-scans. Only valid
// under fusedAlloc (no allocation hooks); produces bit-for-bit the
// grants, Stats mutations and pool releases of AllocateNode. With a
// non-nil plan (a shard worker's parallel phase) the winners are
// recorded there for the commit phase instead of being granted.
func (s *Sim) denseAllocNode(id geom.NodeID, plan *[]planGrant) {
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
	fenceOut := geom.Invalid
	fenceIn := geom.Invalid
	if r.Fence.Active {
		fenceOut, fenceIn = r.Fence.Out, r.Fence.In
	}

	// Classification: fold every ready head into its output's desire
	// mask, candidate index in*slots+sl (ascending by construction —
	// the order commitAllocate's buckets carry). Only occupied slots are
	// visited, via the occBits mirror — a barely-occupied router costs
	// its occupancy, not its capacity. The packet's memoized route-cache
	// read is inlined (OutputOf's override branch is dead here: the
	// fused pass is gated on OutputOverride == nil).
	var desire [geom.NumPorts]uint64
	bubbleVnet := -1
	occw := d.occBits[id]
	slotMask := d.slotMask
	for in := 0; in < geom.NumPorts; in++ {
		base := in * slots
		wp := (occw >> uint(base)) & slotMask
		if wp == 0 {
			continue
		}
		vcs := r.In[in]
		for wp != 0 {
			sl := bits.TrailingZeros64(wp)
			wp &= wp - 1
			vc := &vcs[sl]
			p := vc.Pkt
			if vc.ReadyAt > now {
				continue
			}
			var out geom.Direction
			if p.cacheOK && int(p.cacheHop) == p.Hop {
				out = p.cacheOut
			} else {
				out = s.OutputOf(p, id)
			}
			if out == geom.Invalid || (out == fenceOut && geom.Direction(in) != fenceIn) {
				continue
			}
			desire[out] |= 1 << uint(base+sl)
		}
	}
	if b := &r.Bubble; b.Present && occw>>uint(total)&1 != 0 && b.VC.ReadyAt <= now {
		out := s.OutputOf(b.VC.Pkt, id)
		if out != geom.Invalid && !(out == fenceOut && b.InPort != fenceIn) {
			desire[out] |= 1 << uint(total)
			bubbleVnet = b.VC.Pkt.Vnet
		}
	}

	// Arbitration: per output, reduce the desire mask to the grantable
	// candidates (per-vnet downstream availability answered once per
	// vnet against the static vnetBits masks), then pick the first
	// grantable candidate in cyclic order from the round-robin pointer —
	// exactly the winner commitAllocate's rotate-and-scan converges on,
	// since the candidates it would skip are those tryGrant rejects.
	vnetBits := d.vnetBits
	bubbleBit := uint64(1) << uint(total)
	for _, out := range geom.AllPorts {
		m := desire[out]
		if m == 0 || r.OutFreeAt[out] > now {
			continue
		}
		eligible := m
		nb, in := geom.InvalidNode, geom.Invalid
		if out != geom.Local {
			if !s.Topo.HasLink(id, out) {
				continue
			}
			nb, in = s.Topo.Neighbor(id, out), out.Opposite()
			if !s.Routers[nb].Bubble.EligibleFor(in, now) {
				// No downstream bubble: a candidate is grantable iff its
				// vnet has a free downstream VC right now.
				eligible = 0
				for v, vb := range vnetBits {
					if m&vb != 0 && s.findFreeVCNoFilter(nb, in, v) >= 0 {
						eligible |= m & vb
					}
				}
				if m&bubbleBit != 0 && s.findFreeVCNoFilter(nb, in, bubbleVnet) >= 0 {
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
		if plan != nil {
			dst := -1 // ejection, or the downstream bubble
			if out != geom.Local {
				dst = s.findFreeVCNoFilter(nb, in, vc.Pkt.Vnet)
			}
			*plan = append(*plan, planGrant{id: int32(id), out: int8(out), ci: int16(ci), dst: int16(dst)})
		} else if s.tryGrant(r, out, vc, vc.Pkt, inPort, ci) {
			r.saPtr[out] = (ci + 1) % (total + 1)
		}
	}
}

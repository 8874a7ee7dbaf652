package network

// The escape class: the escape-VC baseline (internal/escape) as data the
// allocator reads instead of hooks it must call. One VC index of every
// vnet at every input port is reserved for packets that have been
// promoted to escape routing (Packet.Escaped); a promoted packet follows
// the class's tree instead of its source route and may enter only the
// reserved index, everyone else may enter every index but that one. Both
// rules are pure functions of (Escaped, position), so OutputOf and the
// free-VC search consult the class directly, the registered request
// vectors (dense.go) carry the tree hop like any other wanted output, and
// the fused pass reads the class like any other state. The timeout
// policy — when a packet is promoted — stays with the scheme: the class
// only records, per buffer, the cycle of its last fill.

import (
	"repro/internal/geom"
)

// TreeRouter is an escape class's route source: the next hop from at
// toward dst over a deadlock-free tree — Local at the destination,
// Invalid when the tree does not connect the two. The lookup must be a
// pure function of its arguments for as long as the value is attached
// (*routing.UpDown, the immutable spanning tree, is); a new tree goes
// through SetEscapeTree.
type TreeRouter interface {
	TreeNextHop(at, dst geom.NodeID) geom.Direction
}

type escapeClass struct {
	vc   int // reserved VC index within every vnet
	tree TreeRouter
	// fill[id*numCand+ci] is the cycle buffer ci (candidate index
	// in*SlotsPerPort+sl, the bubble last) of router id was last filled,
	// written by occBitSet — the one place every fill passes.
	fill []int64
}

// AttachEscapeClass reserves VC index vcIndex of every vnet for escaped
// packets and routes them over tree. Buffers occupied at attach time
// count as filled now; a regular packet already sitting in a reserved VC
// leaves it normally (validate.Check reports it until it does).
func (s *Sim) AttachEscapeClass(vcIndex int, tree TreeRouter) {
	if s.escClass != nil {
		panic("network: escape class already attached")
	}
	if s.hopClass != nil {
		panic("network: an escape class cannot share a Sim with a hop class")
	}
	if vcIndex < 0 || vcIndex >= VCsPerVnet {
		panic("network: escape VC index outside the vnet")
	}
	e := &escapeClass{vc: vcIndex, tree: tree}
	e.fill = make([]int64, len(s.Routers)*numCand)
	if s.Now != 0 {
		for i := range e.fill {
			e.fill[i] = s.Now
		}
	}
	s.escClass = e
	s.setLanes()
	s.Wake(0)
}

// SetEscapeTree swaps the attached class's tree — after a runtime
// reconfiguration rebuilt it. Escaped packets follow the new tree from
// their next allocation on: the request vectors are rebuilt before the
// next sweep.
func (s *Sim) SetEscapeTree(tree TreeRouter) {
	s.escClass.tree = tree
	s.Wake(0)
}

// EscapeClass returns the reserved VC index of the attached escape
// class, with ok false when none is attached.
func (s *Sim) EscapeClass() (vcIndex int, ok bool) {
	if s.escClass == nil {
		return 0, false
	}
	return s.escClass.vc, true
}

// FillCycles returns the cycles at which router id's buffers were last
// filled, indexed in*slots+sl — meaningful for a buffer that holds a
// packet: the cycle that packet entered it. Requires an attached class;
// the slice aliases simulator state and must not be written.
func (s *Sim) FillCycles(id geom.NodeID) []int64 {
	e := s.escClass
	return e.fill[int(id)*numCand : int(id)*numCand+BubbleIndex]
}

// PromoteEscape moves the packet buffered in slot `slot` of router id's
// input port in to the escape class where it stands: from now on it
// follows the tree and may enter only reserved VCs. The buffer's entries
// in the request vectors are re-registered, so the next pass sees the
// tree hop. Call it outside the allocation phase (from a
// PreCycle/PostCycle hook).
func (s *Sim) PromoteEscape(id geom.NodeID, in geom.Direction, slot int) {
	p := s.Routers[id].In[in][slot].Pkt
	p.Escaped = true
	s.Stats.EscapeTransfers++
	d := &s.dense
	ci := int(in)*SlotsPerPort + slot
	m := uint64(1) << uint(ci)
	w := &d.want[id]
	for out := range w {
		w[out] &^= m
	}
	s.registerHop(id, ci, p)
	d.esc[id] |= m
}

// classVCs returns the VC indices of a vnet a packet of the given class
// may enter, as the range [lo, hi) less skip: everything without a class
// attached, else the reserved index alone for an escaped packet and
// every index but it for the rest.
func (s *Sim) classVCs(escaped bool) (lo, hi, skip int) {
	e := s.escClass
	switch {
	case e == nil:
		return 0, VCsPerVnet, -1
	case escaped:
		return e.vc, e.vc + 1, -1
	}
	return 0, VCsPerVnet, e.vc
}

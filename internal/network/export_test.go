package network

import "repro/internal/geom"

// SetReferenceHooks installs a reference allocator's two hooks on s:
// vcFilter may veto downstream VC slot vcIdx (within p's vnet) at router
// dst's input port in, and override may supply p's output at router at.
// findFreeVC and OutputOf consult them and Step's fused pass does not, so
// a Sim carrying them must be stepped by the refmodel's full scan
// (AllocateNode). The escape class's hook oracle is the one user.
func SetReferenceHooks(s *Sim,
	vcFilter func(p *Packet, dst geom.NodeID, in geom.Direction, vcIdx int) bool,
	override func(p *Packet, at geom.NodeID) (geom.Direction, bool)) {
	s.vcFilter, s.outputOverride = vcFilter, override
}

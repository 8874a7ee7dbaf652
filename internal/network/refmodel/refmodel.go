// Package refmodel drives a network.Sim with a deliberately simple
// full-scan stepper: every cycle, every node runs the inject, allocate
// and bubble-transfer phases, whether or not anything could possibly
// happen there.
//
// The stepper exists as the reference half of a differential harness
// (see diff_test.go). Both cores inject through Sim.InjectNode, move
// packets through the same grant and Sim.TransferBubbleNode, and differ
// where Sim.Step is fast: the refmodel visits every router every cycle
// and allocates through Sim.AllocateNode (gather the candidates, then
// commit), Step visits its active set and allocates through the fused
// bitset pass. Any divergence between a refmodel-driven run and a
// Sim.Step-driven run isolates a bug in one of those two layers.
//
// Contract: a Sim handed to New must only be advanced through the
// returned Stepper (never through Sim.Step). Ordering is hooks, then
// per-phase ascending-id scans — which Sim.Step reproduces by sweeping
// its active set in ascending id order under the same phase structure.
package refmodel

import (
	"repro/internal/geom"
	"repro/internal/network"
)

// Stepper advances a Sim one cycle at a time by full scans.
type Stepper struct {
	S *network.Sim
}

// New returns a full-scan stepper for s.
func New(s *network.Sim) *Stepper {
	return &Stepper{S: s}
}

// Step advances the simulation by one cycle, visiting every node in
// every phase.
func (st *Stepper) Step() {
	s := st.S
	for _, f := range s.PreCycle {
		f(s)
	}
	n := len(s.Routers)
	for id := 0; id < n; id++ {
		s.InjectNode(geom.NodeID(id))
	}
	for id := 0; id < n; id++ {
		s.AllocateNode(geom.NodeID(id))
	}
	for id := 0; id < n; id++ {
		s.TransferBubbleNode(geom.NodeID(id))
	}
	for _, f := range s.PostCycle {
		f(s)
	}
	s.Now++
}

// Run advances the simulation by n cycles.
func (st *Stepper) Run(n int) {
	for i := 0; i < n; i++ {
		st.Step()
	}
}

// Package viz renders simulator state as ASCII maps — buffer occupancy,
// fences, bubbles, and recovery-FSM states over the mesh. It exists
// because debugging a wedged NoC means looking at exactly these maps;
// cmd/sbsim exposes them with -viz.
package viz

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
)

// Occupancy writes a per-router buffered-packet-count map. Dead routers
// render as "██", empty routers as " ·".
func Occupancy(w io.Writer, s *network.Sim) {
	fmt.Fprintln(w, "occupancy (packets buffered per router):")
	grid(w, s, func(n geom.NodeID) string {
		if !s.Topo.RouterAlive(n) {
			return "██"
		}
		occ := s.Routers[n].Occupied()
		switch {
		case occ == 0:
			return " ·"
		case occ > 99:
			return "++"
		default:
			return fmt.Sprintf("%2d", occ)
		}
	})
}

// Fences writes the is_deadlock fence map: routers with an active fence
// show the fenced turn as in→out compass letters.
func Fences(w io.Writer, s *network.Sim) {
	fmt.Fprintln(w, "fences (active is_deadlock restrictions, in→out):")
	any := false
	for id := range s.Routers {
		fe := s.Routers[id].Fence
		if fe.Active {
			any = true
			fmt.Fprintf(w, "  R%-3d %v  %v→%v (src R%d)\n",
				id, s.Topo.Coord(geom.NodeID(id)), fe.In, fe.Out, fe.SrcID)
		}
	}
	if !any {
		fmt.Fprintln(w, "  (none)")
	}
}

// Recovery writes the static-bubble map: placement, FSM state, and bubble
// occupancy. ctrl may be nil, in which case only bubble hardware state is
// shown.
func Recovery(w io.Writer, s *network.Sim, ctrl *core.Controller) {
	fmt.Fprintln(w, "static bubbles (·=none  o=idle  A=active  F=full  X=dead SB router):")
	grid(w, s, func(n geom.NodeID) string {
		if !core.HasStaticBubble(s.Topo.Coord(n)) {
			return " ·"
		}
		if !s.Topo.RouterAlive(n) {
			return " X"
		}
		r := &s.Routers[n]
		switch {
		case r.Buf(network.BubbleIndex).Pkt != nil:
			return " F"
		case r.Bubble.Active:
			return " A"
		default:
			return " o"
		}
	})
	if ctrl == nil {
		return
	}
	for _, n := range ctrl.BubbleRouters() {
		if st := ctrl.FSMState(n); st != core.StateOff {
			fmt.Fprintf(w, "  FSM R%-3d %v: %v\n", n, s.Topo.Coord(n), st)
		}
	}
}

// Summary writes all three maps.
func Summary(w io.Writer, s *network.Sim, ctrl *core.Controller) {
	Occupancy(w, s)
	Fences(w, s)
	Recovery(w, s, ctrl)
}

// grid renders one cell per mesh position, north row first.
func grid(w io.Writer, s *network.Sim, cell func(geom.NodeID) string) {
	topo := s.Topo
	for y := topo.Height() - 1; y >= 0; y-- {
		fmt.Fprintf(w, "%3d  ", y)
		for x := 0; x < topo.Width(); x++ {
			fmt.Fprint(w, cell(topo.ID(geom.Coord{X: x, Y: y})))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "     ")
	for x := 0; x < topo.Width(); x++ {
		fmt.Fprintf(w, "%2d", x%10)
	}
	fmt.Fprintln(w)
}

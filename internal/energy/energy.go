// Package energy provides an analytical NoC energy model standing in for
// DSENT at 32 nm (see DESIGN.md §4): per-flit-event dynamic energies for
// buffers, crossbar, and links, and per-cycle leakage for routers,
// buffers, and link drivers. Absolute values are representative; what the
// experiments rely on — and what the constants preserve — are the ratios
// DSENT reports for mesh routers (buffers and crossbar dominate router
// dynamic energy; links carry roughly 40% of the dynamic total; leakage
// dominates at low utilization; power-gated components leak nothing).
package energy

import (
	"repro/internal/geom"
	"repro/internal/network"
)

// The reference 32 nm model: per-event energies in picojoules and
// per-cycle leakage in picojoules per cycle.
const (
	// Dynamic energy per flit event.
	eBufWrite = 1.0 // downstream buffer write per flit
	eBufRead  = 0.8 // upstream buffer read per flit
	eXbar     = 1.2 // crossbar traversal per flit
	eLink     = 1.8 // link traversal per flit
	// eCtrlLink is the link energy per control-message hop (probes,
	// disables, enables, check_probes are 1-flit messages).
	eCtrlLink = 1.8
	// Leakage per cycle.
	pRouterBase = 2.0  // per alive router (control, allocators)
	pBuffer     = 0.12 // per VC buffer
	pLink       = 0.8  // per alive directed link driver
)

// Breakdown is the four-way energy split of the paper's Fig. 10, in
// picojoules.
type Breakdown struct {
	RouterDynamic float64
	LinkDynamic   float64
	RouterLeakage float64
	LinkLeakage   float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 {
	return b.RouterDynamic + b.LinkDynamic + b.RouterLeakage + b.LinkLeakage
}

// EDP returns the energy-delay product against the given delay metric
// (the experiments use application runtime in cycles, per Fig. 13b).
func (b Breakdown) EDP(delay float64) float64 { return b.Total() * delay }

// SchemeOverheadBuffers returns the extra buffers a deadlock-freedom
// scheme adds to the mesh, per the paper's Table I: the static-bubble
// scheme adds one buffer at each alive SB router; the escape-VC scheme
// adds one VC per port at every alive router (n×m×5 on a full mesh);
// spanning-tree avoidance adds none.
func SchemeOverheadBuffers(s *network.Sim, scheme string) int {
	switch scheme {
	case "sb":
		n := 0
		for id := range s.Routers {
			if s.Routers[id].Bubble.Present && s.Topo.RouterAlive(geom.NodeID(id)) {
				n++
			}
		}
		return n
	case "evc":
		return s.Topo.AliveRouterCount() * geom.NumPorts
	default:
		return 0
	}
}

// Compute derives the energy breakdown from the simulator's counters over
// the given horizon. extraBuffers is the scheme's buffer overhead (see
// SchemeOverheadBuffers); dead routers and links contribute no leakage
// (power gating).
func Compute(s *network.Sim, extraBuffers int, cycles int64) Breakdown {
	st := &s.Stats
	flitHops := float64(st.LinkCycles[network.ClassFlit])
	ctrlHops := float64(st.LinkCycles[network.ClassProbe] +
		st.LinkCycles[network.ClassDisable] +
		st.LinkCycles[network.ClassEnable] +
		st.LinkCycles[network.ClassCheckProbe])

	// Each flit link-hop implies one upstream buffer read, one crossbar
	// traversal, and one downstream buffer write. Injection adds a write,
	// ejection a read plus a crossbar pass.
	routerDyn := flitHops*(eBufRead+eXbar+eBufWrite) +
		float64(st.InjectedFlits)*eBufWrite +
		float64(st.DeliveredFlits)*(eBufRead+eXbar)
	linkDyn := flitHops*eLink + ctrlHops*eCtrlLink

	aliveRouters := float64(s.Topo.AliveRouterCount())
	buffers := aliveRouters*(network.SlotsPerPort*geom.NumPorts) + float64(extraBuffers)
	routerLeak := float64(cycles) * (aliveRouters*pRouterBase + buffers*pBuffer)
	linkLeak := float64(cycles) * float64(s.AliveDirectedLinkCount()) * pLink

	return Breakdown{
		RouterDynamic: routerDyn,
		LinkDynamic:   linkDyn,
		RouterLeakage: routerLeak,
		LinkLeakage:   linkLeak,
	}
}

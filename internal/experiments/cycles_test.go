package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// channel is a directed link: the one leaving router from by dir.
type channel struct {
	from geom.NodeID
	dir  geom.Direction
}

func (c channel) index() int { return int(c.from)*geom.NumLinkDirs + int(c.dir) }

// channelCycles enumerates every simple cycle of directed links in topo
// that makes no U-turn, each once, rooted at its least channel. A cycle
// may pass a router more than once.
func channelCycles(topo *topology.Topology) [][]channel {
	var cycles [][]channel
	var path []channel
	on := make([]bool, topo.NumNodes()*geom.NumLinkDirs)
	var extend func(root, c channel)
	extend = func(root, c channel) {
		at := topo.Neighbor(c.from, c.dir)
		for _, d := range geom.LinkDirs {
			n := channel{at, d}
			switch {
			case d == c.dir.Opposite() || !topo.HasLink(at, d):
			case n == root:
				cycles = append(cycles, slices.Clone(path))
			case n.index() > root.index() && !on[n.index()]:
				on[n.index()] = true
				path = append(path, n)
				extend(root, n)
				path = path[:len(path)-1]
				on[n.index()] = false
			}
		}
	}
	for n := 0; n < topo.NumNodes(); n++ {
		for _, d := range geom.LinkDirs {
			if root := (channel{geom.NodeID(n), d}); topo.HasLink(root.from, d) {
				path = append(path[:0], root)
				extend(root, root)
			}
		}
	}
	return cycles
}

// maxVisits is the most times cyc passes one router.
func maxVisits(cyc []channel) int {
	visits := map[geom.NodeID]int{}
	most := 0
	for _, c := range cyc {
		visits[c.from]++
		most = max(most, visits[c.from])
	}
	return most
}

// drainCycle wedges cyc on a fresh mesh under Static Bubble (TDD 34) and
// drains it for at most 20 k cycles: every channel's source router
// enqueues 12 five-flit packets whose routes follow the cycle for
// max(2, ⌊L/2⌋) hops, so the cycle is the only deadlock they can form.
func drainCycle(w, h int, cyc []channel) RunMetrics {
	topo := topology.NewMesh(w, h)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{TDD: 34})
	hops := max(2, len(cyc)/2)
	for i, c := range cyc {
		route := make(routing.Route, hops)
		dst := c.from
		for k := range route {
			ch := cyc[(i+k)%len(cyc)]
			route[k], dst = ch.dir, topo.Neighbor(ch.from, ch.dir)
		}
		for k := 0; k < 12; k++ {
			s.Enqueue(s.NewPacket(c.from, dst, 0, 5, slices.Clone(route)))
		}
	}
	return Run(s, nil, Phases{Drain: 20000})
}

// TestChannelCycles3x3: a 3x3 mesh has 292 no-U-turn channel cycles, 26
// of them passing each router at most once, and every simple one drains
// under Static Bubble after at least one recovery.
func TestChannelCycles3x3(t *testing.T) {
	cycles := channelCycles(topology.NewMesh(3, 3))
	simple := 0
	for _, cyc := range cycles {
		if maxVisits(cyc) > 1 {
			continue
		}
		simple++
		m := drainCycle(3, 3, cyc)
		if m.Left != 0 || m.Stats.DeadlockRecoveries == 0 {
			t.Errorf("cycle %v: %d packets left after %d drain cycles, %d recoveries",
				cyc, m.Left, m.DrainCycles, m.Stats.DeadlockRecoveries)
		}
	}
	if len(cycles) != 292 || simple != 26 {
		t.Fatalf("%d cycles, %d simple; want 292 and 26 (266 revisiting)", len(cycles), simple)
	}
}

// TestFigureEightWedgesWithOneFencePerRouter pins the smallest cycle
// that revisits a router: 8 channels on a 3x3 mesh, passing the centre
// router twice. A router holds one fence, so when a recovery chain's
// disable reaches the centre the second time, the centre already holds
// this chain's fence and drops it: every round times out in S_DISABLE
// and tears its fences down with an enable. Probes return and disables
// and enables are sent, but no disable ever returns — no recovery, no
// check probe, no bubble use — and nothing is delivered. It asserts
// today's wedge; a fence per input port flips it to a drain.
func TestFigureEightWedgesWithOneFencePerRouter(t *testing.T) {
	var eight []channel
	for _, cyc := range channelCycles(topology.NewMesh(3, 3)) {
		if len(cyc) == 8 && maxVisits(cyc) == 2 {
			eight = cyc
			break
		}
	}
	m := drainCycle(3, 3, eight)
	st := m.Stats
	t.Logf("figure-eight %v: %d of %d delivered; %d probes sent, %d returned; %d disables and %d enables sent; %d recoveries in %d cycles",
		eight, st.Delivered, st.Offered, st.ProbesSent, st.ProbesReturned,
		st.DisablesSent, st.EnablesSent, st.DeadlockRecoveries, m.DrainCycles)
	if m.Left == 0 {
		t.Fatal("the figure-eight drained: rewrite this test to assert the drain")
	}
	if st.DisablesSent == 0 {
		t.Fatal("vacuous: no recovery round ran")
	}
	if st.DeadlockRecoveries != 0 || st.CheckProbesSent != 0 {
		t.Fatalf("a disable returned (%d recoveries, %d check probes) yet the cycle stayed wedged",
			st.DeadlockRecoveries, st.CheckProbesSent)
	}
}

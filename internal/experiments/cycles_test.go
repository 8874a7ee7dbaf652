package experiments

import (
	"maps"
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
// that makes no U-turn and has at most maxLen channels (0: no cap), each
// once, rooted at its least channel. A cycle may pass a router more than
// once.
func channelCycles(topo *topology.Topology, maxLen int) [][]channel {
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
			case n.index() > root.index() && !on[n.index()] && len(path) != maxLen:
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

// drainCycle wedges cycs together on a fresh mesh under Static Bubble
// (TDD 34; SPIN's recovery when spin is set) and drains them for at most
// 20 k cycles: every channel's source router enqueues 12 five-flit
// packets whose routes follow its cycle for max(2, ⌊L/2⌋) hops, so the
// cycles are the only deadlocks they can form.
func drainCycle(w, h int, spin bool, cycs ...[]channel) RunMetrics {
	topo := topology.NewMesh(w, h)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{TDD: 34, Spin: spin})
	for _, cyc := range cycs {
		hops := max(2, len(cyc)/2)
		for i, c := range cyc {
			route := make(routing.Route, hops)
			dst := c.from
			for k := range route {
				ch := cyc[(i+k)%len(cyc)]
				route[k], dst = ch.dir, topo.Neighbor(ch.from, ch.dir)
			}
			for k := 0; k < 12; k++ {
				s.Enqueue(s.NewPacket(c.from, dst, 0, 5, route))
			}
		}
	}
	return Run(s, nil, Phases{Drain: 20000})
}

// TestChannelCycles3x3: a 3x3 mesh has 292 no-U-turn channel cycles, 26
// of them passing each router at most once, and every simple one drains
// under Static Bubble after at least one recovery.
func TestChannelCycles3x3(t *testing.T) {
	cycles := channelCycles(topology.NewMesh(3, 3), 0)
	simple := 0
	for _, cyc := range cycles {
		if maxVisits(cyc) > 1 {
			continue
		}
		simple++
		m := drainCycle(3, 3, false, cyc)
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
	for _, cyc := range channelCycles(topology.NewMesh(3, 3), 0) {
		if len(cyc) == 8 && maxVisits(cyc) == 2 {
			eight = cyc
			break
		}
	}
	m := drainCycle(3, 3, false, eight)
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

// TestChannelCycleCounts pins the enumeration, capped where the whole set
// would not fit in memory (an uncapped 4x4 ran out after 194 s).
func TestChannelCycleCounts(t *testing.T) {
	for _, c := range []struct{ w, h, maxLen, cycles, simple int }{
		{3, 3, 0, 292, 26},
		{4, 3, 16, 1122, 80},
		{4, 4, 8, 126, 94},
		{4, 4, 12, 1086, 350},
		{4, 4, 16, 7330, 426},
	} {
		cycles := channelCycles(topology.NewMesh(c.w, c.h), c.maxLen)
		simple := 0
		for _, cyc := range cycles {
			if len(cyc) > c.maxLen && c.maxLen != 0 {
				t.Fatalf("%dx%d: a %d-channel cycle past the cap %d", c.w, c.h, len(cyc), c.maxLen)
			}
			if maxVisits(cyc) == 1 {
				simple++
			}
		}
		if len(cycles) != c.cycles || simple != c.simple {
			t.Errorf("%dx%d, at most %d channels: %d cycles, %d simple; want %d and %d",
				c.w, c.h, c.maxLen, len(cycles), simple, c.cycles, c.simple)
		}
	}
}

// recoveryCycles is how many cycles an isolated simple cycle of L
// channels takes to drain (drainCycle's recipe), by recovery scheme. It
// depends on L alone.
var recoveryCycles = map[bool]map[int]int64{
	false: {4: 272, 6: 530, 8: 1160, 10: 2045, 12: 3223}, // Static Bubble
	true:  {4: 219, 6: 338, 8: 465, 10: 621, 12: 799},    // SPIN
}

// TestRecoveryTimeByCycleLength asserts the law: every simple cycle of
// 3x3 and 4x3, and of 4x4 up to 12 channels, drains in exactly
// recoveryCycles[L] cycles with exactly three recoveries, under Static
// Bubble and under SPIN. A count that rises is a regression in recovery
// time, which a test that only asks "drained?" lets through.
func TestRecoveryTimeByCycleLength(t *testing.T) {
	// A simple cycle of 4x3 passes each of its 12 routers at most once,
	// so a 12-channel cap keeps all of them.
	meshes := []struct {
		w, h, maxLen int
		byLen        map[int]int // simple cycles by length; nil: unchecked
	}{
		{3, 3, 0, nil},
		{4, 3, 12, map[int]int{4: 12, 6: 14, 8: 24, 10: 26, 12: 4}},
		{4, 4, 12, map[int]int{4: 18, 6: 24, 8: 52, 10: 104, 12: 152}},
	}
	if testing.Short() {
		meshes = meshes[:1]
	}
	for _, spin := range []bool{false, true} {
		for _, m := range meshes {
			byLen := map[int]int{}
			for _, cyc := range channelCycles(topology.NewMesh(m.w, m.h), m.maxLen) {
				if maxVisits(cyc) > 1 {
					continue
				}
				byLen[len(cyc)]++
				r := drainCycle(m.w, m.h, spin, cyc)
				want, ok := recoveryCycles[spin][len(cyc)]
				if !ok || r.Left != 0 || r.DrainCycles != want || r.Stats.DeadlockRecoveries != 3 {
					t.Errorf("spin %v, %dx%d cycle %v: %d left after %d drain cycles (want 0 after %d), %d recoveries (want 3)",
						spin, m.w, m.h, cyc, r.Left, r.DrainCycles, want, r.Stats.DeadlockRecoveries)
				}
			}
			if m.byLen != nil && !maps.Equal(byLen, m.byLen) {
				t.Errorf("%dx%d simple cycles by length: %v, want %v", m.w, m.h, byLen, m.byLen)
			}
		}
	}
}

// cyclePair is two wedged cycles, by position among channelCycles'
// simple cycles, and what draining them together left: completed
// recoveries and packets stranded.
type cyclePair struct{ i, j, recoveries, left int64 }

// TestCyclePairsWedgeCounts pins which pairs of simple cycles, wedged at
// once, fail to drain: every pair of 3x3 simple cycles, and every pair
// of 4x4 simple cycles of at most 8 channels. A pair that starts
// wedging is a regression; one that stops wedging is progress to record
// by editing its entry out.
func TestCyclePairsWedgeCounts(t *testing.T) {
	// SB's 4x4 pairs show both frozen signatures: dead (3 recoveries,
	// then nothing moves) and livelock (recoveries keep completing).
	sb4 := []cyclePair{{1, 19, 94, 116}, {2, 5, 3, 128}, {14, 56, 78, 99}, {19, 26, 90, 88},
		{20, 23, 3, 128}, {28, 69, 80, 112}, {45, 48, 3, 128}, {61, 64, 3, 128}}
	sets := []struct {
		name         string
		w, h, maxLen int
		spin         bool
		wedged       []cyclePair
	}{
		{"sb/3x3", 3, 3, 0, false, []cyclePair{{1, 4, 3, 128}}},
		{"spin/3x3", 3, 3, 0, true, nil},
		{"sb/4x4", 4, 4, 8, false, sb4},
		{"spin/4x4", 4, 4, 8, true, []cyclePair{{1, 73, 1, 152}, {3, 80, 1, 152}, {14, 60, 1, 152}, {15, 78, 1, 152}}},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			if testing.Short() && set.w == 4 {
				t.Skip("4x4 pairs skipped under -short")
			}
			t.Parallel()
			var simple [][]channel
			for _, cyc := range channelCycles(topology.NewMesh(set.w, set.h), set.maxLen) {
				if maxVisits(cyc) == 1 {
					simple = append(simple, cyc)
				}
			}
			var wedged []cyclePair
			for i := range simple {
				for j := i + 1; j < len(simple); j++ {
					m := drainCycle(set.w, set.h, set.spin, simple[i], simple[j])
					if m.Left != 0 {
						wedged = append(wedged, cyclePair{int64(i), int64(j), m.Stats.DeadlockRecoveries, m.Left})
					}
				}
			}
			if !slices.Equal(wedged, set.wedged) {
				t.Errorf("wedged pairs (i, j, recoveries, left) of %d simple cycles:\n got  %v\n want %v",
					len(simple), wedged, set.wedged)
			}
		})
	}
}

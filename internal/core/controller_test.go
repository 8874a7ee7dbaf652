package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// mk builds a small sim with SB attached for white-box protocol tests.
func mk(t *testing.T, w, h int, tdd int64) (*network.Sim, *Controller) {
	t.Helper()
	topo := topology.NewMesh(w, h)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	c := Attach(s, Options{TDD: tdd})
	return s, c
}

func TestBeatsPriorityTable(t *testing.T) {
	s, c := mk(t, 2, 2, 20)
	r := &s.Routers[0]
	cp := &Message{Type: MsgCheckProbe, Src: 1}
	dis := &Message{Type: MsgDisable, Src: 2}
	en := &Message{Type: MsgEnable, Src: 3}
	pr := &Message{Type: MsgProbe, Src: 9}

	if !c.beats(cp, dis, r) || !c.beats(cp, pr, r) || !c.beats(cp, en, r) {
		t.Fatal("check_probe must beat everything")
	}
	if !c.beats(dis, pr, r) || !c.beats(en, pr, r) {
		t.Fatal("disable/enable must beat probes")
	}
	// disable vs enable depends on the fence (is_deadlock bit).
	r.Fence.Active = false
	if !c.beats(dis, en, r) || c.beats(en, dis, r) {
		t.Fatal("without a fence the disable wins")
	}
	r.Fence.Active = true
	if !c.beats(en, dis, r) || c.beats(dis, en, r) {
		t.Fatal("with a fence the enable wins")
	}
	// Same type: higher source id wins.
	a, b := &Message{Type: MsgProbe, Src: 5}, &Message{Type: MsgProbe, Src: 7}
	if c.beats(a, b, r) || !c.beats(b, a, r) {
		t.Fatal("higher node-id must win same-type arbitration")
	}
}

func TestForkProbeRequiresAllVCsOccupied(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	r := &s.Routers[1]
	// Probe heading East into node 1 (input port West), vnet 0.
	m := Message{Type: MsgProbe, Src: 5, Vnet: 0, At: 1, Heading: geom.East}
	// Empty port: dropped.
	if reqs := c.forkProbe(1, r, m, nil); reqs != nil {
		t.Fatalf("probe at empty port should drop, got %d reqs", len(reqs))
	}
	// Fill 3 of 4 vnet-0 VCs: still dropped.
	for i := 0; i < 3; i++ {
		p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
		p.Hop = 1
		s.PlacePacket(1, geom.West, i, p)
	}
	if reqs := c.forkProbe(1, r, m, nil); reqs != nil {
		t.Fatal("probe with a free VC should drop")
	}
	// Fill the 4th: forks out of East (all packets want East).
	p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
	p.Hop = 1
	s.PlacePacket(1, geom.West, 3, p)
	reqs := c.forkProbe(1, r, m, nil)
	if len(reqs) != 1 || reqs[0].out != geom.East {
		t.Fatalf("fork = %+v, want one East fork", reqs)
	}
	if reqs[0].m.Turns != pathOf(geom.Straight) {
		t.Fatalf("turns = %v, want [S]", reqs[0].m.Turns)
	}
}

func TestForkProbeEjectionOnlyDrops(t *testing.T) {
	// All packets waiting for ejection: the probe is dropped (walk-through
	// step 4a).
	s, c := mk(t, 3, 1, 20)
	r := &s.Routers[1]
	for i := 0; i < 4; i++ {
		p := s.NewPacket(0, 1, 0, 1, routing.Route{geom.East})
		p.Hop = 1 // at destination, wants Local
		s.PlacePacket(1, geom.West, i, p)
	}
	m := Message{Type: MsgProbe, Src: 5, Vnet: 0, At: 1, Heading: geom.East}
	if reqs := c.forkProbe(1, r, m, nil); reqs != nil {
		t.Fatal("ejection-bound packets must not propagate probes")
	}
}

func TestForkProbeTurnCapacity(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	r := &s.Routers[1]
	for i := 0; i < 4; i++ {
		p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
		p.Hop = 1
		s.PlacePacket(1, geom.West, i, p)
	}
	probe := func(turns int) Message {
		var p Path
		for i := 0; i < turns; i++ {
			p = p.Push(geom.Straight)
		}
		return Message{Type: MsgProbe, Src: 5, Vnet: 0, At: 1, Heading: geom.East, Turns: p}
	}
	if reqs := c.forkProbe(1, r, probe(MaxTurns), nil); reqs != nil {
		t.Fatalf("probe holding MaxTurns=%d turns must drop", MaxTurns)
	}
	reqs := c.forkProbe(1, r, probe(MaxTurns-1), nil)
	if len(reqs) != 1 || reqs[0].m.Turns.Len() != MaxTurns {
		t.Fatalf("probe holding MaxTurns-1 turns: forks %+v, want one fork holding %d turns", reqs, MaxTurns)
	}
}

func TestForkProbeForksToMultipleOutputs(t *testing.T) {
	s, c := mk(t, 3, 3, 20)
	center := geom.NodeID(4)
	r := &s.Routers[center]
	// Two packets want North, two want East; probe enters heading East.
	for i, want := range []geom.Direction{geom.North, geom.North, geom.East, geom.East} {
		dst := s.Topo.Neighbor(center, want)
		p := s.NewPacket(3, dst, 0, 1, routing.Route{geom.East, want})
		p.Hop = 1
		s.PlacePacket(center, geom.West, i, p)
	}
	m := Message{Type: MsgProbe, Src: 8, Vnet: 0, At: center, Heading: geom.East}
	reqs := c.forkProbe(center, r, m, nil)
	if len(reqs) != 2 {
		t.Fatalf("forks = %d, want 2", len(reqs))
	}
	outs := map[geom.Direction]bool{}
	for _, rq := range reqs {
		outs[rq.out] = true
		// Each fork is an independent copy.
		if rq.m.Turns.Len() != 1 {
			t.Fatalf("fork turns = %v", rq.m.Turns)
		}
	}
	if !outs[geom.North] || !outs[geom.East] {
		t.Fatalf("fork outputs = %v", outs)
	}
}

func TestDependenceExistsChecksVnetAndBubble(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	node := geom.NodeID(1)
	r := &s.Routers[node]
	p := s.NewPacket(0, 2, 1, 1, routing.Route{geom.East, geom.East})
	p.Hop = 1
	s.PlacePacket(node, geom.West, 1*network.VCsPerVnet, p) // vnet 1 slot
	if !c.dependenceExists(node, geom.West, 1, geom.East) {
		t.Fatal("vnet-1 dependence should be visible")
	}
	if c.dependenceExists(node, geom.West, 0, geom.East) {
		t.Fatal("vnet-0 must not see vnet-1 packets")
	}
	if c.dependenceExists(node, geom.West, 1, geom.North) {
		t.Fatal("wrong output must not match")
	}
	if c.dependenceExists(node, geom.Local, 1, geom.East) {
		t.Fatal("local port never carries chain dependence")
	}
	// Bubble occupant counts.
	s.RemovePacket(node, int(geom.West)*network.SlotsPerPort+1*network.VCsPerVnet)
	p = s.NewPacket(0, 2, 1, 1, routing.Route{geom.East, geom.East})
	p.Hop = 1
	r.Bubble.Present = true
	s.PlaceBubblePacket(node, geom.West, p)
	if !c.dependenceExists(node, geom.West, 1, geom.East) {
		t.Fatal("bubble occupant dependence should be visible")
	}
}

func TestDisableInstallsAndEnableClearsFence(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	node := geom.NodeID(1)
	r := &s.Routers[node]
	// A packet at West wanting East makes the dependence real.
	p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
	p.Hop = 1
	s.PlacePacket(node, geom.West, 0, p)

	dis := Message{Type: MsgDisable, Src: 7, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	reqs := c.processOne(node, r, nil, dis, nil)
	if len(reqs) != 1 || reqs[0].out != geom.East {
		t.Fatalf("disable should forward East, got %+v", reqs)
	}
	if !r.Fence.Active || r.Fence.In != geom.West || r.Fence.Out != geom.East || r.Fence.SrcID != 7 {
		t.Fatalf("fence = %+v", r.Fence)
	}

	// A second disable from a different chain is dropped.
	dis2 := Message{Type: MsgDisable, Src: 9, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	if reqs := c.processOne(node, r, nil, dis2, nil); reqs != nil {
		t.Fatal("second disable must be dropped while fenced")
	}

	// A mismatched enable forwards but does not clear.
	enWrong := Message{Type: MsgEnable, Src: 9, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	if reqs := c.processOne(node, r, nil, enWrong, nil); len(reqs) != 1 {
		t.Fatal("mismatched enable must still be forwarded")
	}
	if !r.Fence.Active {
		t.Fatal("mismatched enable must not clear the fence")
	}

	// The matching enable clears and forwards.
	en := Message{Type: MsgEnable, Src: 7, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	if reqs := c.processOne(node, r, nil, en, nil); len(reqs) != 1 {
		t.Fatal("matching enable must forward")
	}
	if r.Fence.Active {
		t.Fatal("matching enable must clear the fence")
	}
}

func TestDisableDroppedWhenDependenceGone(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	node := geom.NodeID(1)
	r := &s.Routers[node]
	dis := Message{Type: MsgDisable, Src: 7, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	if reqs := c.processOne(node, r, nil, dis, nil); reqs != nil {
		t.Fatal("disable with no matching dependence must drop")
	}
	if r.Fence.Active {
		t.Fatal("no fence should be installed")
	}
	_ = s
}

func TestCheckProbeRequiresMatchingFence(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	node := geom.NodeID(1)
	r := &s.Routers[node]
	p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
	p.Hop = 1
	s.PlacePacket(node, geom.West, 0, p)
	cp := Message{Type: MsgCheckProbe, Src: 7, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	// No fence: dropped.
	if reqs := c.processOne(node, r, nil, cp, nil); reqs != nil {
		t.Fatal("check_probe without fence must drop")
	}
	// Fence from another source: dropped.
	r.Fence = network.Fence{Active: true, In: geom.West, Out: geom.East, SrcID: 9}
	cp2 := Message{Type: MsgCheckProbe, Src: 7, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	if reqs := c.processOne(node, r, nil, cp2, nil); reqs != nil {
		t.Fatal("check_probe with foreign fence must drop")
	}
	// Matching fence and live dependence: forwarded along the fence out.
	r.Fence.SrcID = 7
	cp3 := Message{Type: MsgCheckProbe, Src: 7, Vnet: 0, At: node, Heading: geom.East,
		Turns: pathOf(geom.Straight), Seq: 1}
	reqs := c.processOne(node, r, nil, cp3, nil)
	if len(reqs) != 1 || reqs[0].out != geom.East {
		t.Fatalf("check_probe should forward East, got %+v", reqs)
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	a := &fsm{node: 5, rngState: 12345}
	b := &fsm{node: 5, rngState: 12345}
	for i := 0; i < 1000; i++ {
		ja, jb := a.jitter(), b.jitter()
		if ja != jb {
			t.Fatal("jitter must be deterministic for equal state")
		}
		if ja < 0 || ja >= 16 {
			t.Fatalf("jitter %d outside [0,16)", ja)
		}
	}
}

// TestNextOccupiedVCScanOrder pins the detection FSM's round-robin over
// candidate indices: link-input slots ascending, the local port skipped,
// the bubble (when present) last, wrapping after the last occupant.
func TestNextOccupiedVCScanOrder(t *testing.T) {
	const (
		slots  = network.SlotsPerPort
		bubble = network.BubbleIndex
		local  = int(geom.Local) * slots
		none   = -2 // no occupied candidate
	)
	type tc struct {
		name    string
		occ     []int // occupied candidate indices
		present bool  // router has a static bubble
		from    int
		want    int
	}
	cases := []tc{
		{"empty", nil, true, -1, none},
		{"local-slot-skipped", []int{local}, true, -1, none},
		{"last-local-slot-skipped", []int{local + slots - 1}, true, -1, none},
		{"local-between-link-slots", []int{10, local + 3, 20}, true, 10, 20},
		{"bubble-alone", []int{bubble}, true, -1, bubble},
		{"bubble-absent-router", []int{bubble}, false, -1, none},
		{"bubble-after-last-link-slot", []int{slots*geom.NumLinkDirs - 1, bubble}, true, slots*geom.NumLinkDirs - 1, bubble},
		{"wrap-from-bubble", []int{3, bubble}, true, bubble, 3},
		{"wrap-from-bubble-to-itself", []int{local, bubble}, true, bubble, bubble},
		{"wrap-from-slot-47", []int{0, slots*geom.NumLinkDirs - 1}, true, slots*geom.NumLinkDirs - 1, 0},
		{"wrap-from-slot-47-past-absent-bubble", []int{5, slots*geom.NumLinkDirs - 1, bubble}, false, slots*geom.NumLinkDirs - 1, 5},
		{"bubble-before-wrap", []int{3, bubble}, true, 3, bubble},
		{"two-ports-ascending", []int{35, 12}, true, -1, 12},
		{"two-ports-next", []int{12, 35}, true, 12, 35},
		{"two-ports-wrap", []int{12, 35}, true, 35, 12},
		{"local-before-bubble-skipped", []int{local + 7, bubble}, true, 47, bubble},
	}
	for _, d := range geom.LinkDirs {
		for _, sl := range []int{0, slots - 1} {
			ci := int(d)*slots + sl
			cases = append(cases,
				tc{fmt.Sprintf("%v-slot-%d", d, sl), []int{ci}, true, -1, ci},
				tc{fmt.Sprintf("%v-slot-%d-wraps-to-itself", d, sl), []int{ci}, true, ci, ci})
		}
	}
	for _, c := range cases {
		s, _ := mk(t, 3, 1, 20)
		r := &s.Routers[1]
		r.Bubble.Present = c.present
		ids := map[int]int64{}
		for _, ci := range c.occ {
			p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
			if ci == bubble {
				s.PlaceBubblePacket(1, geom.West, p)
			} else {
				s.PlacePacket(1, geom.Direction(ci/slots), ci%slots, p)
			}
			ids[ci] = p.ID
		}
		got, pid, ok := nextOccupiedVC(s, r, c.from)
		if !ok {
			got = none
		}
		if got != c.want || (ok && pid != ids[got]) {
			t.Errorf("%s: from %d got %d (pkt %d, ok %v), want %d", c.name, c.from, got, pid, ok, c.want)
		}
		if ok && r.Buf(got).Pkt.ID != pid {
			t.Errorf("%s: Buf(%d) does not hold the reported packet", c.name, got)
		}
	}
}

func TestFSMPathLen(t *testing.T) {
	f := &fsm{turnBuf: pathOf(geom.LeftTurn, geom.LeftTurn, geom.Straight)}
	if f.pathLen() != 4 {
		t.Fatalf("pathLen = %d, want turns+1", f.pathLen())
	}
}

func TestProbeSeqPreservedThroughForks(t *testing.T) {
	s, c := mk(t, 3, 1, 20)
	r := &s.Routers[1]
	for i := 0; i < 4; i++ {
		p := s.NewPacket(0, 2, 0, 1, routing.Route{geom.East, geom.East})
		p.Hop = 1
		s.PlacePacket(1, geom.West, i, p)
	}
	m := Message{Type: MsgProbe, Src: 5, Vnet: 0, At: 1, Heading: geom.East,
		Seq: 42, OutPort: geom.North}
	reqs := c.forkProbe(1, r, m, nil)
	if len(reqs) != 1 || reqs[0].m.Seq != 42 || reqs[0].m.OutPort != geom.North {
		t.Fatalf("fork lost context: %+v", reqs[0].m)
	}
}

func TestMessageString(t *testing.T) {
	m := Message{Type: MsgProbe, Src: 3, At: 7, Heading: geom.North,
		Turns: pathOf(geom.LeftTurn)}
	if m.String() != "probe(src=3 at=7 heading=N turns=1)" {
		t.Fatalf("String = %q", m.String())
	}
	if m.inPort() != geom.South {
		t.Fatalf("inPort = %v", m.inPort())
	}
}

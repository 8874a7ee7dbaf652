package viz

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestOccupancyMap(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	topo.DisableRouter(4)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	s.Enqueue(s.NewPacket(0, 2, 0, 5, routing.Route{geom.East, geom.East}))
	s.Step()
	var buf bytes.Buffer
	Occupancy(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "██") {
		t.Fatal("dead router not rendered")
	}
	if !strings.Contains(out, " 1") {
		t.Fatalf("occupied router not rendered:\n%s", out)
	}
	if !strings.Contains(out, " ·") {
		t.Fatal("empty routers not rendered")
	}
}

func TestFencesMap(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	Fences(&buf, s)
	if !strings.Contains(buf.String(), "(none)") {
		t.Fatal("empty fence list should say none")
	}
	buf.Reset()
	s.Routers[1].Fence = network.Fence{Active: true, In: geom.West, Out: geom.North, SrcID: 3}
	Fences(&buf, s)
	if !strings.Contains(buf.String(), "W→N") || !strings.Contains(buf.String(), "src R3") {
		t.Fatalf("fence not rendered: %q", buf.String())
	}
}

func TestRecoveryMapStates(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(s, core.Options{})
	// Mark one bubble active and one full.
	bubbles := ctrl.BubbleRouters()
	s.Routers[bubbles[0]].Bubble.Active = true
	s.Routers[bubbles[1]].Buf(network.BubbleIndex).Pkt = s.NewPacket(0, 1, 0, 1, routing.Route{geom.East})
	var buf bytes.Buffer
	Recovery(&buf, s, ctrl)
	out := buf.String()
	for _, marker := range []string{" o", " A", " F", " ·"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("marker %q missing:\n%s", marker, out)
		}
	}
}

func TestRecoveryMapDeadSBRouter(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	topo.DisableRouter(topo.ID(geom.Coord{X: 1, Y: 1})) // an SB position
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	Recovery(&buf, s, nil)
	if !strings.Contains(buf.String(), " X") {
		t.Fatal("dead SB router should render as X")
	}
}

func TestSummaryDuringLiveRecovery(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(s, core.Options{TDD: 20})
	hops := map[geom.NodeID]geom.Direction{0: geom.North, 2: geom.East, 3: geom.South, 1: geom.West}
	for _, n := range []geom.NodeID{0, 2, 3, 1} {
		d1 := hops[n]
		mid := topo.Neighbor(n, d1)
		d2 := hops[mid]
		dst := topo.Neighbor(mid, d2)
		for k := 0; k < 12; k++ {
			s.Enqueue(s.NewPacket(n, dst, 0, 5, routing.Route{d1, d2}))
		}
	}
	// Run until a fence is up (mid-recovery), then render.
	sawFence := false
	for i := 0; i < 4000 && !sawFence; i++ {
		s.Step()
		for id := range s.Routers {
			if s.Routers[id].Fence.Active {
				sawFence = true
			}
		}
	}
	if !sawFence {
		t.Fatal("no recovery observed")
	}
	var buf bytes.Buffer
	Summary(&buf, s, ctrl)
	out := buf.String()
	if !strings.Contains(out, "fences") || strings.Contains(out, "(none)") {
		t.Fatalf("expected active fences in summary:\n%s", out)
	}
	if !strings.Contains(out, "FSM R3") {
		t.Fatalf("expected FSM line for router 3:\n%s", out)
	}
}

package network_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

// TestRerouteBufferedPacket reroutes a packet sitting in a buffer between
// cycles: the request vectors must file it under its new next hop before
// the next Step (validate.Check recomputes them from the buffers), and
// the packet must leave by the new route.
func TestRerouteBufferedPacket(t *testing.T) {
	topo := topology.NewMesh(3, 2)
	id := func(x, y int) geom.NodeID { return topo.ID(geom.Coord{X: x, Y: y}) }
	dir := func(a, b geom.NodeID) geom.Direction { return geom.DirectionBetween(topo.Coord(a), topo.Coord(b)) }
	src, mid, dst, up, upDst := id(0, 0), id(1, 0), id(2, 0), id(1, 1), id(2, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	s.Enqueue(s.NewPacket(src, dst, 0, 5, routing.Route{dir(src, mid), dir(mid, dst)}))
	s.Run(3) // the packet now sits at mid, its head arrived, wanting dst
	occ := s.OccupancyMirror(mid)
	if bits.OnesCount64(occ) != 1 {
		t.Fatalf("router %d holds %d packets, want 1", mid, bits.OnesCount64(occ))
	}
	detour := routing.Route{dir(mid, up), dir(up, upDst), dir(upDst, dst)}
	s.Reroute(mid, bits.TrailingZeros64(occ), detour)
	if vs := validate.Check(s, nil); len(vs) != 0 {
		t.Fatalf("violations right after Reroute: %v", vs)
	}
	want, _ := s.RequestVectors(mid)
	if want[detour[0]] != occ {
		t.Fatalf("want[%v] = %#x after Reroute, want the buffer %#x", detour[0], want[detour[0]], occ)
	}
	var route routing.Route
	s.OnDeliver = func(p *network.Packet) { route = slices.Clone(p.Route) }
	visitedUp := false
	for i := 0; i < 40 && route == nil; i++ {
		s.Step()
		visitedUp = visitedUp || s.OccupancyMirror(up) != 0
	}
	if route == nil || !slices.Equal(route, detour) || !visitedUp {
		t.Fatalf("delivered over %v (through router %d: %v), want %v", route, up, visitedUp, detour)
	}
}

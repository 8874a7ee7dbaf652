package snapshot

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func wedgedSim(t *testing.T) (*network.Sim, *core.Controller) {
	t.Helper()
	topo := topology.NewMesh(2, 2)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	ctrl := core.Attach(s, core.Options{TDD: 1 << 40}) // detection effectively off
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
	s.Run(1500)
	return s, ctrl
}

func TestCaptureWedgedState(t *testing.T) {
	s, ctrl := wedgedSim(t)
	st := Capture(s, ctrl)
	if st.Cycle != s.Now || st.Width != 2 || st.Height != 2 {
		t.Fatalf("header wrong: %+v", st)
	}
	if int64(len(st.Packets)) != s.InFlight() {
		t.Fatalf("packets %d != in flight %d", len(st.Packets), s.InFlight())
	}
	if len(st.Bubbles) != 1 || st.Bubbles[0].Router != 3 {
		t.Fatalf("bubbles = %+v", st.Bubbles)
	}
	if st.Bubbles[0].FSM == "" {
		t.Fatal("FSM state missing with controller supplied")
	}
	// Every captured packet must name a real port and a want.
	for _, p := range st.Packets {
		if p.InPort == "?" || p.Wants == "?" {
			t.Fatalf("bad packet state: %+v", p)
		}
	}
}

func TestCaptureWithoutController(t *testing.T) {
	s, _ := wedgedSim(t)
	st := Capture(s, nil)
	if len(st.Bubbles) != 1 || st.Bubbles[0].FSM != "" {
		t.Fatalf("bubbles = %+v", st.Bubbles)
	}
}

func TestRoundTripJSON(t *testing.T) {
	s, ctrl := wedgedSim(t)
	st := Capture(s, ctrl)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatal("snapshot did not survive the JSON round trip")
	}
}

func TestCapturesFencesMidRecovery(t *testing.T) {
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
	found := false
	for i := 0; i < 6000 && !found; i++ {
		s.Step()
		st := Capture(s, ctrl)
		if len(st.Fences) > 0 {
			found = true
			for _, fe := range st.Fences {
				if fe.Src != 3 {
					t.Fatalf("fence source = %d, want 3", fe.Src)
				}
			}
		}
	}
	if !found {
		t.Fatal("never captured an active fence")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	take := func() State {
		s, ctrl := wedgedSim(t)
		return Capture(s, ctrl)
	}
	a, b := take(), take()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different snapshots")
	}
}

package reconfig

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/topology"
)

// FuzzReconfigOverlap feeds arbitrary interleavings of reconfiguration
// events — gates, revocations, abrupt kills, link flaps, scheduled
// recoveries — into a live simulation with Static Bubble recovery
// attached, with traffic bursts mixed in. The byte stream is an op
// program: pairs (op, arg) select the event kind and target. Whatever
// the interleaving, the invariants must hold:
//
//   - Submit/Tick never panic and the epoch never moves backwards.
//   - Packet conservation after every step.
//   - No stuck state: once the program ends, gates complete or revoke,
//     the event queue empties, and all traffic drains.
//   - Dead elements stay consistent: a router reported dead has no
//     alive links in the topology's view.
func FuzzReconfigOverlap(f *testing.F) {
	// Seed corpus: the overlap shapes the state machine is built for.
	f.Add([]byte{0x00, 0x0c, 0x02, 0x0c, 0x05, 0x0c})                         // gate, then abrupt fail of the same router, then recover
	f.Add([]byte{0x00, 0x07, 0x01, 0x07, 0x00, 0x07, 0x01, 0x07})             // gate/revoke flapping
	f.Add([]byte{0x03, 0x11, 0x03, 0x11, 0x04, 0x11, 0x04, 0x11})             // link down twice, up twice (idempotence)
	f.Add([]byte{0x02, 0x0a, 0x05, 0x0a, 0x02, 0x0a, 0x06, 0x30, 0x05, 0x0a}) // fail, recover, fail again with traffic
	f.Add([]byte{0x07, 0x20, 0x02, 0x09, 0x07, 0x40, 0x05, 0x09, 0x06, 0x10}) // scheduled recovery behind live traffic
	f.Add([]byte{0x00, 0x05, 0x03, 0x05, 0x02, 0x06, 0x06, 0x22, 0x05, 0x06, 0x04, 0x05, 0x01, 0x05})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		topo := topology.NewMesh(5, 5)
		num := topo.NumNodes()
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
		ctl := core.Attach(s, core.Options{TDD: 26})
		m := New(s)
		m.SetScheme(ctl)
		alg := m.Algorithm()
		rng := rand.New(rand.NewSource(11))

		conserved := func(tag string) {
			t.Helper()
			if got := s.Stats.Delivered + s.InFlight() + s.QueuedPackets() + s.Stats.Lost; got != s.Stats.Offered {
				t.Fatalf("%s: conservation violated: Delivered+InFlight+Queued+Lost=%d, Offered=%d",
					tag, got, s.Stats.Offered)
			}
		}
		inject := func(k int) {
			for i := 0; i < k; i++ {
				src := geom.NodeID(rng.Intn(num))
				dst := geom.NodeID(rng.Intn(num))
				if src == dst || !topo.RouterAlive(src) || !topo.RouterAlive(dst) {
					continue
				}
				if r, ok := alg.Route(src, dst, rng); ok {
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 1+4*rng.Intn(2), r))
				} else {
					s.Drop()
				}
			}
		}

		epoch := m.Epoch()
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			node := geom.NodeID(int(arg) % num)
			dir := geom.Direction(int(arg>>5) % int(geom.NumLinkDirs))
			switch op % 8 {
			case 0:
				m.Submit(Event{Kind: EvGate, Node: node}) // errors on dead routers: allowed
			case 1:
				m.Submit(Event{Kind: EvRecoverRouter, Node: node})
			case 2:
				// Abrupt kill, but keep at least half the mesh up so the
				// program cannot grind the network away entirely.
				if topo.AliveRouterCount() > num/2 {
					m.Submit(Event{Kind: EvFailRouter, Node: node})
				}
			case 3:
				if len(topo.AliveUndirectedLinks()) > num {
					m.Submit(Event{Kind: EvFailLink, Node: node, Dir: dir})
				}
			case 4:
				m.Submit(Event{Kind: EvRecoverLink, Node: node, Dir: dir})
			case 5:
				m.Submit(Event{Kind: EvRecoverRouter, Node: node})
			case 6:
				inject(1 + int(arg)%8)
			case 7:
				m.SubmitAt(s.Now+1+int64(arg)%64, Event{Kind: EvRecoverRouter, Node: node})
			}
			if e := m.Epoch(); e < epoch {
				t.Fatalf("op %d: epoch moved backwards: %d -> %d", i/2, epoch, e)
			} else {
				epoch = e
			}
			m.Tick()
			for j := 0; j <= int(op)%3; j++ {
				s.Step()
			}
			conserved("mid-program")
		}

		// Wind down: recover everything so pending drains can't be blocked
		// by a dead destination, then pump until quiescent.
		for n := 0; n < num; n++ {
			if !topo.RouterAlive(geom.NodeID(n)) {
				m.Submit(Event{Kind: EvRecoverRouter, Node: geom.NodeID(n)})
			}
		}
		for i := 0; i < 20000; i++ {
			m.Tick()
			if m.PendingEvents() == 0 && m.PendingGates() == 0 && s.InFlight()+s.QueuedPackets() == 0 {
				break
			}
			s.Step()
		}
		if m.PendingGates() != 0 {
			t.Fatalf("stuck gate drain: %d gates never completed or revoked", m.PendingGates())
		}
		if m.PendingEvents() != 0 {
			t.Fatalf("event queue never drained: %d entries", m.PendingEvents())
		}
		if left := s.InFlight() + s.QueuedPackets(); left != 0 {
			t.Fatalf("traffic never drained: %d packets stuck", left)
		}
		conserved("final")

		// Topology self-consistency. LinkIntact by design ignores router
		// aliveness (a gate may legitimately complete during the drain and
		// power its router off), so the invariants are: HasLink implies
		// alive endpoints AND an intact wire, and intactness is symmetric.
		for n := 0; n < num; n++ {
			id := geom.NodeID(n)
			for _, d := range geom.LinkDirs {
				nb := topo.Neighbor(id, d)
				if topo.HasLink(id, d) {
					if !topo.RouterAlive(id) || !topo.RouterAlive(nb) || !topo.LinkIntact(id, d) {
						t.Fatalf("HasLink(%v,%v) with dead endpoint or severed wire", id, d)
					}
				}
				if nb != geom.InvalidNode && topo.LinkIntact(id, d) != topo.LinkIntact(nb, d.Opposite()) {
					t.Fatalf("link intactness asymmetric across %v<->%v", id, nb)
				}
			}
		}
	})
}

package network

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// buffered is one buffered packet as the allocator sees it at the start
// of a cycle.
type buffered struct {
	p       *Packet
	at      geom.NodeID
	in      geom.Direction // the bubble's InPort for its occupant
	readyAt int64
	freeAt  int64 // the buffer's, left by its previous occupant
	hop     int
	fence   Fence
}

// snapshotBuffers records every buffered packet of s before a Step.
func snapshotBuffers(s *Sim, snap []buffered) []buffered {
	snap = snap[:0]
	for id := range s.Routers {
		r := &s.Routers[id]
		add := func(vc *VC, in geom.Direction) {
			snap = append(snap, buffered{p: vc.Pkt, at: r.ID, in: in, readyAt: vc.ReadyAt, freeAt: vc.FreeAt, hop: vc.Pkt.Hop, fence: r.Fence})
		}
		for ci := range r.bufs {
			if vc := &r.bufs[ci]; vc.Pkt != nil {
				in := geom.Direction(ci / SlotsPerPort)
				if ci == BubbleIndex {
					in = r.Bubble.InPort
				}
				add(vc, in)
			}
		}
	}
	return snap
}

// FuzzAllocateGrantInvariants throws randomized irregular topologies,
// traffic, fences and bubble states at the switch allocator
// and checks, from buffer state before and after every cycle — so it
// checks the pass that actually ran — that every packet that moved was
// granted legally:
//
//   - it left through its route's next output, onto a live link and into
//     a buffer of the neighbor's that was free (its previous occupant's
//     tail gone), or it ejected,
//   - no packet vanished (was overwritten),
//   - never through an active fence except from the fenced-in port,
//   - only with its head ready (ReadyAt passed),
//
// and that the per-output round-robin pointers stay in bounds after
// every cycle. modeByte bit 0 selects router faults, bit 2 the full scan
// (fullScan: the gather-then-commit AllocateNode at every router) in
// place of Step's fused pass; bit 1 is unused.
func FuzzAllocateGrantInvariants(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0), uint8(0))
	f.Add(int64(3), int64(4), uint8(5), uint8(1))
	f.Add(int64(42), int64(7), uint8(13), uint8(2))
	f.Add(int64(-9), int64(100), uint8(255), uint8(7))
	f.Fuzz(func(t *testing.T, topoSeed, trafficSeed int64, faultByte, modeByte uint8) {
		hrng := rand.New(rand.NewSource(trafficSeed))
		w := 4 + int(faultByte%3)
		h := 4 + int(faultByte/3%3)
		kind := topology.LinkFaults
		if modeByte&1 != 0 {
			kind = topology.RouterFaults
		}
		topo := topology.RandomIrregular(w, h, kind, int(faultByte%10), topoSeed)
		s := New(topo, Config{}, rand.New(rand.NewSource(trafficSeed)))
		s.SetPooling(false) // delivered packets keep DeliveredAt
		step := s.Step
		if modeByte&4 != 0 {
			step = func() { fullScan(s) }
		}

		alive := topo.AliveRouters()
		if len(alive) < 2 {
			return
		}
		min := routing.NewMinimal(topo)

		// Random fences and bubble activations, reshuffled mid-run.
		mutate := func() {
			for i := 0; i < 3; i++ {
				n := alive[hrng.Intn(len(alive))]
				r := &s.Routers[n]
				if hrng.Intn(3) == 0 {
					r.Fence = Fence{}
				} else {
					r.Fence = Fence{
						Active: true,
						In:     geom.AllPorts[hrng.Intn(geom.NumPorts)],
						Out:    geom.AllPorts[hrng.Intn(geom.NumPorts)],
					}
				}
				if hrng.Intn(2) == 0 {
					b := &s.Routers[alive[hrng.Intn(len(alive))]].Bubble
					b.Present = true
					b.Active = hrng.Intn(2) == 0
					b.InPort = geom.LinkDirs[hrng.Intn(len(geom.LinkDirs))]
				}
			}
		}
		mutate()

		slots := SlotsPerPort
		total := geom.NumPorts * slots
		cycles := 200 + int(modeByte)
		var snap, after []buffered
		where := make(map[*Packet]buffered)
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc%50 == 25 {
				mutate()
			}
			if cyc < cycles*3/4 {
				for i := 0; i < 4; i++ {
					src := alive[hrng.Intn(len(alive))]
					dst := alive[hrng.Intn(len(alive))]
					if dst == src {
						continue
					}
					if r, ok := min.Route(src, dst, hrng); ok {
						ln := 1 + 4*hrng.Intn(2)
						s.Enqueue(s.NewPacket(src, dst, hrng.Intn(NumVnets), ln, r))
					}
				}
			}
			snap = snapshotBuffers(s, snap)
			now := s.Now
			step()

			clear(where)
			after = snapshotBuffers(s, after)
			for _, b := range after {
				where[b.p] = b
			}
			for _, b := range snap {
				p := b.p
				var out geom.Direction
				got, buffered := where[p]
				switch {
				case p.DeliveredAt >= 0:
					out = geom.Local
				case !buffered:
					t.Fatalf("cycle %d: %v vanished from %v", now, p, b.at)
				case p.Hop == b.hop:
					continue // did not move (or slid from the bubble into a VC)
				case p.Hop == b.hop+1:
					out = p.Route[b.hop]
					if !s.Topo.HasLink(b.at, out) {
						t.Fatalf("cycle %d: grant at %v onto dead link %v", now, b.at, out)
					}
					if got.at != s.Topo.Neighbor(b.at, out) {
						t.Fatalf("cycle %d: %v left %v through %v but sits at %v", now, p, b.at, out, got.at)
					}
					if got.freeAt > now {
						t.Fatalf("cycle %d: %v entered a buffer at %v free only from %d", now, p, got.at, got.freeAt)
					}
				default:
					t.Fatalf("cycle %d: %v advanced from hop %d to %d in one cycle", now, p, b.hop, p.Hop)
				}
				if fc := b.fence; fc.Active && out == fc.Out && b.in != fc.In {
					t.Fatalf("cycle %d: grant at %v from %v through fence %v->%v", now, b.at, b.in, fc.In, fc.Out)
				}
				if b.readyAt > now {
					t.Fatalf("cycle %d: grant at %v for a packet ready at %d", now, b.at, b.readyAt)
				}
			}
			for id := range s.Routers {
				for _, out := range geom.AllPorts {
					if ptr := s.Routers[id].saPtr[out]; ptr < 0 || ptr > total {
						t.Fatalf("cycle %d: router %d saPtr[%v] = %d out of [0,%d]",
							s.Now, id, out, ptr, total)
					}
				}
			}
		}
	})
}

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
	bubble  bool
	readyAt int64
	hop     int
	fence   Fence
	// ringFree is the downstream free-VC count of the packet's vnet when
	// it is a ring entry at a ring node (Router.Ring) wanting the ring
	// output, else -1.
	ringFree int
}

// snapshotBuffers records every buffered packet of s before a Step.
func snapshotBuffers(s *Sim, snap []buffered) []buffered {
	snap = snap[:0]
	for id := range s.Routers {
		r := &s.Routers[id]
		add := func(vc *VC, in geom.Direction, bubble bool) {
			p := vc.Pkt
			b := buffered{p: p, at: r.ID, in: in, bubble: bubble, readyAt: vc.ReadyAt, hop: p.Hop, fence: r.Fence, ringFree: -1}
			if g := r.Ring; g.Active && !bubble && in != g.In && p.Hop < len(p.Route) &&
				p.Route[p.Hop] == g.Out && s.Topo.HasLink(r.ID, g.Out) {
				nb := &s.Routers[s.Topo.Neighbor(r.ID, g.Out)]
				b.ringFree = 0
				for v := 0; v < s.Cfg.VCsPerVnet; v++ {
					if nb.VCAt(s.Cfg, g.Out.Opposite(), p.Vnet, v).Empty(s.Now) {
						b.ringFree++
					}
				}
			}
			snap = append(snap, b)
		}
		for _, in := range geom.AllPorts {
			for sl := range r.In[in] {
				if r.In[in][sl].Pkt != nil {
					add(&r.In[in][sl], in, false)
				}
			}
		}
		if r.Bubble.VC.Pkt != nil {
			add(&r.Bubble.VC, r.Bubble.InPort, true)
		}
	}
	return snap
}

// FuzzAllocateGrantInvariants throws randomized irregular topologies,
// traffic, fences, bubble states and ring rules at the switch allocator
// and checks, from buffer state before and after every Step — so it
// checks the pass Step actually runs, the fused one unless a VCFilter is
// installed — that every packet that moved was granted legally:
//
//   - it left through its route's next output, onto a live link and into
//     the neighbor's buffers (or it ejected),
//   - never through an active fence except from the fenced-in port,
//   - only with its head ready (ReadyAt passed),
//   - under a ring rule, never into the ring from an input other than
//     Ring.In while fewer than 2 VCs of its vnet were free downstream
//     (the bubble occupant is exempt),
//
// and that the per-output round-robin pointers stay in bounds after
// every cycle. modeByte bit 0 selects router faults, bit 1 random ring
// rules, bit 2 an always-true VCFilter (the generic AllocateNode path).
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
		rings := modeByte&2 != 0
		if modeByte&4 != 0 {
			s.VCFilter = func(*Packet, geom.NodeID, geom.Direction, int) bool { return true }
		}

		alive := topo.AliveRouters()
		if len(alive) < 2 {
			return
		}
		min := routing.NewMinimal(topo)

		// Random fences, bubble activations and ring rules, reshuffled
		// mid-run.
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
			if rings {
				for _, n := range alive {
					s.Routers[n].Ring = Ring{
						Active: hrng.Intn(4) != 0,
						In:     geom.AllPorts[hrng.Intn(geom.NumPorts)],
						Out:    geom.LinkDirs[hrng.Intn(len(geom.LinkDirs))],
					}
				}
			}
		}
		mutate()

		slots := s.Cfg.SlotsPerPort()
		total := geom.NumPorts * slots
		cycles := 200 + int(modeByte)
		var snap []buffered
		where := make(map[*Packet]geom.NodeID)
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
						s.Enqueue(s.NewPacket(src, dst, hrng.Intn(s.Cfg.NumVnets), ln, r))
					}
				}
			}
			snap = snapshotBuffers(s, snap)
			now := s.Now
			s.Step()

			clear(where)
			for _, b := range snapshotBuffers(s, nil) {
				where[b.p] = b.at
			}
			for _, b := range snap {
				p := b.p
				var out geom.Direction
				switch {
				case p.DeliveredAt >= 0:
					out = geom.Local
				case p.Hop == b.hop:
					continue // did not move (or slid from the bubble into a VC)
				case p.Hop == b.hop+1:
					out = p.Route[b.hop]
					if !s.Topo.HasLink(b.at, out) {
						t.Fatalf("cycle %d: grant at %v onto dead link %v", now, b.at, out)
					}
					if got := where[p]; got != s.Topo.Neighbor(b.at, out) {
						t.Fatalf("cycle %d: %v left %v through %v but sits at %v", now, p, b.at, out, got)
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
				if b.ringFree >= 0 && b.ringFree < 2 {
					t.Fatalf("cycle %d: ring entry at %v from %v through %v with %d VC(s) free downstream",
						now, b.at, b.in, out, b.ringFree)
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

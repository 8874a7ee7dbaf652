package network

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// FuzzAllocateGrantInvariants throws randomized irregular topologies,
// traffic, fences, bubble states, and grant filters at the switch
// allocator and checks — via the OnGrant observation hook — that every
// grant it ever issues is legal:
//
//   - never onto a dead or missing link,
//   - never through an active fence except from the fenced-in port,
//   - never vetoed by the GrantFilter (bubble candidates are exempt by
//     design: the fence already constrains them and the paper's recovery
//     drains the bubble unconditionally),
//   - only for head-ready packets (the granted VC really holds the
//     packet and its ReadyAt has passed),
//
// and that the per-output round-robin pointers stay in bounds after
// every cycle.
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

		// A deterministic, state-free filter so re-evaluating it inside
		// OnGrant gives the same verdict the allocator saw.
		switch modeByte % 3 {
		case 1:
			s.GrantFilter = func(p *Packet, at geom.NodeID, in, out geom.Direction) bool {
				return (p.ID+int64(at)+int64(in)+2*int64(out))%3 != 0
			}
		case 2:
			s.GrantFilter = func(p *Packet, at geom.NodeID, in, out geom.Direction) bool {
				return out == geom.Local || int64(at)%2 == 0
			}
		}

		s.OnGrant = func(p *Packet, vc *VC, at geom.NodeID, in, out geom.Direction) {
			r := &s.Routers[at]
			if out != geom.Local && !s.Topo.HasLink(at, out) {
				t.Fatalf("cycle %d: grant at %v onto dead link %v", s.Now, at, out)
			}
			if r.Fence.Active && out == r.Fence.Out && in != r.Fence.In {
				t.Fatalf("cycle %d: grant at %v from %v through fence %v->%v",
					s.Now, at, in, r.Fence.In, r.Fence.Out)
			}
			if vc.Pkt != p {
				t.Fatalf("cycle %d: granted VC at %v does not hold the granted packet", s.Now, at)
			}
			if vc.ReadyAt > s.Now {
				t.Fatalf("cycle %d: grant at %v for packet ready at %d", s.Now, at, vc.ReadyAt)
			}
			if s.GrantFilter != nil && vc != &r.Bubble.VC &&
				!s.GrantFilter(p, at, in, out) {
				t.Fatalf("cycle %d: grant at %v (%v->%v) vetoed by GrantFilter", s.Now, at, in, out)
			}
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

		slots := s.Cfg.SlotsPerPort()
		total := geom.NumPorts * slots
		cycles := 200 + int(modeByte)
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
			s.Step()
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

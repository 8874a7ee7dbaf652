package refmodel

// Escape-VC units of the differential corpus. The escape scheme is an
// escape class the allocator reads (network/escclass.go), so Step serves
// it with the fused pass and the request vectors, while the refmodel's
// full scan runs the generic gather/commit over the same class: a class
// bit the fused pass misreads, a fill cycle left unrecorded, or a
// promotion that leaves a stale want bit shows up here as a Stats
// divergence on the cycle it happens.

import (
	"math/rand"
	"testing"

	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestDifferentialEscapeSaturated(t *testing.T) {
	const (
		cycles     = 2400
		window     = 1600
		rate       = 0.30 // packets/node/cycle: far past the scheme's saturation
		linkFaults = 17
		topoSeed   = 41
		pokeEvery  = 89
	)
	units := []*unit{{name: "refmodel"}, {name: "step"}}
	for i, u := range units {
		topo := topology.RandomIrregular(8, 8, topology.LinkFaults, linkFaults, topoSeed)
		u.sim = network.New(topo, network.Config{}, rand.New(rand.NewSource(3)))
		u.step = u.sim.Step
		if i == 0 {
			u.step = New(u.sim).Step
			u.sim.SetPooling(false)
		}
		escape.Attach(u.sim, routing.NewUpDown(topo))
		u.delivered = make(map[int64]int64)
		d := u.delivered
		u.sim.OnDeliver = func(p *network.Packet) { d[p.ID] = p.DeliveredAt }
	}
	ref := units[0].sim
	min := routing.NewMinimal(ref.Topo)
	alive := ref.Topo.AliveRouters()
	hrng := rand.New(rand.NewSource(4))

	var removed, placed int

	for cyc := 0; cyc < cycles; cyc++ {
		if cyc%pokeEvery == pokeEvery-1 {
			// Destroy one escaped packet where it stands, and drop a new,
			// already escaped one into a free reserved VC elsewhere: the
			// class word and the tree hop must be registered by the
			// placement, not only by a promotion.
			from := hrng.Intn(len(ref.Routers))
			if id, port, slot, ok := findBuffer(ref, from, func(vc *network.VC, port geom.Direction, _ int) bool {
				return port != geom.Local && vc.Pkt != nil && vc.Pkt.Escaped
			}); ok {
				for _, u := range units {
					u.sim.RemovePacket(id, int(port)*network.SlotsPerPort+slot)
				}
				removed++
			}
			if id, port, slot, ok := findBuffer(ref, from, func(vc *network.VC, port geom.Direction, slot int) bool {
				return port != geom.Local && slot%network.VCsPerVnet == escape.EscapeVCIndex && vc.Empty(ref.Now)
			}); ok {
				dst := alive[hrng.Intn(len(alive))]
				if rt, ok := min.Route(id, dst, hrng); ok && dst != id {
					for _, u := range units {
						p := u.sim.NewPacket(id, dst, slot/network.VCsPerVnet, 5, rt)
						p.Escaped = true
						u.sim.PlacePacket(id, port, slot, p)
					}
					placed++
				}
			}
		}
		if cyc < window {
			for _, src := range alive {
				if hrng.Float64() >= rate {
					continue
				}
				dst := alive[hrng.Intn(len(alive))]
				rt, ok := min.Route(src, dst, hrng)
				if dst == src || !ok {
					continue
				}
				vnet, ln := hrng.Intn(network.NumVnets), 1+4*hrng.Intn(2)
				for _, u := range units {
					u.sim.Enqueue(u.sim.NewPacket(src, dst, vnet, ln, rt))
				}
			}
		}
		for _, u := range units {
			u.step()
		}
		for _, u := range units[1:] {
			if u.sim.Stats != ref.Stats {
				t.Fatalf("cycle %d: stats diverged\nrefmodel: %+v\n%s: %+v", cyc, ref.Stats, u.name, u.sim.Stats)
			}
			if u.sim.InFlight() != ref.InFlight() || u.sim.QueuedPackets() != ref.QueuedPackets() {
				t.Fatalf("cycle %d: occupancy diverged (%s)", cyc, u.name)
			}
		}
		if cyc%checkEvery == checkEvery-1 {
			for _, u := range units {
				if err := checkUnit(cyc, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, u := range units[1:] {
		if len(u.delivered) != len(units[0].delivered) {
			t.Fatalf("%s delivered %d packets, refmodel %d", u.name, len(u.delivered), len(units[0].delivered))
		}
		for id, at := range units[0].delivered {
			if u.delivered[id] != at {
				t.Fatalf("packet %d: refmodel delivered at %d, %s at %d", id, at, u.name, u.delivered[id])
			}
		}
	}
	if ref.Stats.EscapeTransfers == 0 || removed == 0 || placed == 0 {
		t.Errorf("vacuous: %d promotions, %d escaped packets removed, %d placed", ref.Stats.EscapeTransfers, removed, placed)
	}
	if _, _, live := units[1].sim.RequestVectors(0); !live {
		t.Error("step: request vectors not live — the escape run left the fused pass")
	}
}

package network_test

import (
	"math/rand"
	"testing"

	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/routing"
	"repro/internal/topology"
)

// oracle is the hook implementation internal/escape shipped before the
// escape class existed, kept as the reference the class-based scheme must
// equal: a VC filter and an output override closure (installed through
// SetReferenceHooks, which only the refmodel's full scan honours), and a
// PostCycle scan over every buffer of every occupied router with a
// (packet id, first seen) timer per buffer.
type oracle struct {
	sim    *network.Sim
	updown *routing.UpDown
	timers []oracleTimer
	slots  int
}

type oracleTimer struct {
	pktID int64
	since int64
}

func attachOracle(s *network.Sim, ud *routing.UpDown) *oracle {
	slots := network.SlotsPerPort
	c := &oracle{
		sim:    s,
		updown: ud,
		timers: make([]oracleTimer, s.Topo.NumNodes()*geom.NumPorts*slots),
		slots:  slots,
	}
	network.SetReferenceHooks(s,
		func(p *network.Packet, dst geom.NodeID, in geom.Direction, vcIdx int) bool {
			if p.Escaped {
				return vcIdx == escape.EscapeVCIndex
			}
			return vcIdx != escape.EscapeVCIndex
		},
		func(p *network.Packet, at geom.NodeID) (geom.Direction, bool) {
			if !p.Escaped {
				return geom.Invalid, false
			}
			d := c.updown.TreeNextHop(at, p.Dst)
			if d == geom.Invalid {
				return geom.Local, p.Dst == at
			}
			return d, true
		})
	s.PostCycle = append(s.PostCycle, func(sim *network.Sim) { c.scan() })
	return c
}

func (c *oracle) scan() {
	s := c.sim
	now := s.Now
	for id := range s.Routers {
		r := &s.Routers[id]
		if r.Occupied() == 0 {
			continue
		}
		base := id * geom.NumPorts * c.slots
		for _, port := range geom.AllPorts {
			pbase := base + int(port)*c.slots
			for slot := 0; slot < c.slots; slot++ {
				p := r.In[port][slot].Pkt
				tm := &c.timers[pbase+slot]
				if p == nil || p.Escaped {
					tm.pktID = 0
					continue
				}
				if tm.pktID != p.ID {
					tm.pktID = p.ID
					tm.since = now
					continue
				}
				if now-tm.since >= escape.Timeout {
					p.Escaped = true
					s.Stats.EscapeTransfers++
					tm.pktID = 0
				}
			}
		}
	}
}

// TestClassMatchesHookOracle runs the class-based scheme under Step and
// the hook oracle under the refmodel's full scan side by side on the
// same traffic: Stats must agree after every cycle (so every promotion
// lands on the same cycle) and every packet must be delivered at the same
// cycle with the same Escaped flag (so every promotion picked the same
// packet and every escaped packet the same slots and tree hops). The two
// sides also differ in allocator — the fused pass against the
// gather-then-commit scan — so the test holds those equal too.
func TestClassMatchesHookOracle(t *testing.T) {
	type delivery struct {
		id, at  int64
		escaped bool
	}
	for _, tc := range []struct {
		name     string
		faults   int
		rate     float64
		attachAt int // the scheme is attached before this cycle's traffic
	}{
		{"12faults_saturated", 12, 0.30, 0},
		{"25faults_saturated", 25, 0.30, 0},
		{"25faults_knee", 25, 0.04, 0},
		// Attached to a network already full of packets: every resident's
		// timer starts at the attach.
		{"12faults_saturated_late_attach", 12, 0.30, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				cycles  = 2500
				window  = 1500
				swapAt  = 700
				topSeed = 17
			)
			var sims [2]*network.Sim
			var step [2]func()
			var setTree [2]func(*routing.UpDown)
			var got [2][]delivery
			for i := range sims {
				topo := topology.RandomIrregular(8, 8, topology.LinkFaults, tc.faults, topSeed)
				s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
				i := i
				s.OnDeliver = func(p *network.Packet) {
					got[i] = append(got[i], delivery{p.ID, p.DeliveredAt, p.Escaped})
				}
				sims[i] = s
			}
			step[0], step[1] = sims[0].Step, refmodel.New(sims[1]).Step
			attach := func() {
				ud := routing.NewUpDown(sims[0].Topo)
				setTree[0] = escape.Attach(sims[0], ud).SetTree
				o := attachOracle(sims[1], ud)
				setTree[1] = func(ud *routing.UpDown) { o.updown = ud }
			}
			topo := sims[0].Topo
			min := routing.NewMinimal(topo)
			alive := topo.AliveRouters()
			rng := rand.New(rand.NewSource(2))
			for cyc := 0; cyc < cycles; cyc++ {
				if cyc == tc.attachAt {
					attach()
				}
				if cyc == swapAt {
					// A different spanning tree over the same topology:
					// escaped packets change course mid-flight.
					for i := range sims {
						setTree[i](routing.NewUpDownRooted(sims[i].Topo, routing.RootLowestID))
					}
				}
				if cyc < window {
					for _, src := range alive {
						if rng.Float64() >= tc.rate {
							continue
						}
						dst := alive[rng.Intn(len(alive))]
						rt, ok := min.Route(src, dst, rng)
						if dst == src || !ok {
							continue
						}
						vnet, ln := rng.Intn(3), 1+4*rng.Intn(2)
						for _, s := range sims {
							s.Enqueue(s.NewPacket(src, dst, vnet, ln, rt))
						}
					}
				}
				for _, st := range step {
					st()
				}
				if sims[0].Stats != sims[1].Stats {
					t.Fatalf("cycle %d: stats diverged\nclass:  %+v\noracle: %+v", cyc, sims[0].Stats, sims[1].Stats)
				}
			}
			if len(got[0]) != len(got[1]) {
				t.Fatalf("deliveries: class %d, oracle %d", len(got[0]), len(got[1]))
			}
			promotedDelivered := 0
			for k := range got[0] {
				if got[0][k] != got[1][k] {
					t.Fatalf("delivery %d: class %+v, oracle %+v", k, got[0][k], got[1][k])
				}
				if got[0][k].escaped {
					promotedDelivered++
				}
			}
			if sims[0].Stats.EscapeTransfers == 0 || promotedDelivered == 0 {
				t.Fatalf("vacuous: %d promotions, %d promoted packets delivered", sims[0].Stats.EscapeTransfers, promotedDelivered)
			}
			t.Logf("%d promotions, %d promoted packets among %d delivered", sims[0].Stats.EscapeTransfers, promotedDelivered, len(got[0]))
		})
	}
}

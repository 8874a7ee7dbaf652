package adaptive

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/topology"
)

// BenchmarkAdaptiveSaturated16x16 times whole cycles of per-hop adaptive
// routing on the repository benchmark's adaptive_faulty_16x16 input: the
// 40-link-fault 16x16 with Static Bubble attached, offered 0.02 five-flit
// packets/node/cycle of uniform random traffic on vnet 0, which the
// topology just carries — most routers hold several heads with more than
// one minimal direction every cycle. One op is a 1000-cycle block after a
// 2000-cycle warm-up. Reported: ns/cycle (injection included) and hops
// per 1000 cycles.
func BenchmarkAdaptiveSaturated16x16(b *testing.B) {
	const (
		rate  = 0.02
		block = 1000
	)
	topo := topology.RandomIrregular(16, 16, topology.LinkFaults, 40, 7)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{})
	c := Attach(s)
	alive := topo.AliveRouters()
	rng := rand.New(rand.NewSource(2))
	run := func(cycles int) {
		for cyc := 0; cyc < cycles; cyc++ {
			for _, src := range alive {
				if rng.Float64() >= rate {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				if dst == src || !c.Reachable(src, dst) {
					continue
				}
				s.Enqueue(c.NewPacket(src, dst, 0, 5))
			}
			s.Step()
		}
	}
	run(2 * block)
	hops := s.Stats.HopMoves
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		run(block)
	}
	cycles := float64(b.N * block)
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/cycles, "ns/cycle")
	b.ReportMetric(float64(s.Stats.HopMoves-hops)/float64(b.N), "hops/kcycle")
	if s.Stats.HopMoves == hops {
		b.Fatal("no packet moved in the measured window")
	}
}

package escape

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// BenchmarkEscapeSaturated8x8 times whole cycles of the escape-VC scheme
// where it costs most: an irregular 8x8 (17 link faults) offered 0.30
// flits/node/cycle of uniform random traffic, several times what the
// scheme accepts, so buffers stay full, the timeout fires constantly and
// escaped packets crowd the tree. One op is a 1000-cycle block after a
// 2000-cycle warm-up; a source with four packets already queued skips its
// draw's injection, which bounds memory without letting the load drop.
// Reported: ns/cycle (injection included) and promotions per 1000
// cycles.
func BenchmarkEscapeSaturated8x8(b *testing.B) {
	const (
		rate     = 0.30
		meanLen  = 3.0 // 1-flit and 5-flit packets, half each
		maxQueue = 4
		block    = 1000
	)
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 17, 5)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	Attach(s, routing.NewUpDown(topo))
	min := routing.NewMinimal(topo)
	alive := topo.AliveRouters()
	rng := rand.New(rand.NewSource(2))
	var buf routing.Route
	run := func(cycles int) {
		for c := 0; c < cycles; c++ {
			for _, src := range alive {
				if rng.Float64() >= rate/meanLen {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				rt, ok := min.AppendRoute(buf[:0], src, dst, rng)
				buf = rt
				if !ok || dst == src || s.NIPending(src) >= maxQueue {
					continue
				}
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 1+4*rng.Intn(2), rt))
			}
			s.Step()
		}
	}
	run(2 * block)
	promoted := s.Stats.EscapeTransfers
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		run(block)
	}
	cycles := float64(b.N * block)
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/cycles, "ns/cycle")
	b.ReportMetric(float64(s.Stats.EscapeTransfers-promoted)/float64(b.N), "promotions/kcycle")
	if s.Stats.EscapeTransfers == promoted {
		b.Fatal("no promotion in the measured window")
	}
}

package traffic

// Bernoulli, run by Stream.Next, replaces `rng.Float64() < p` everywhere
// an injection decision is made. These tests hold it to that expression:
// the same verdict for every drawn integer, the same number of draws
// consumed, and — end to end — the same packets out of an Injector and a
// ParetoOnOff as the Float64 form they had before, which survives here
// as the oracle.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// offerFloat64 is Injector.offer as it was before Bernoulli.
func (in *Injector) offerFloat64(s *network.Sim, src geom.NodeID, pPkt float64) {
	if in.rng.Float64() >= pPkt {
		return
	}
	in.emit(s, src)
}

// tickFloat64 is Injector.Tick as it was before Bernoulli.
func (in *Injector) tickFloat64(s *network.Sim) {
	pPkt := in.RateFlits / in.meanLen()
	for _, src := range in.sources {
		in.offerFloat64(s, src, pPkt)
	}
}

// tickFloat64 is ParetoOnOff.Tick as it was before Bernoulli.
func (po *ParetoOnOff) tickFloat64(s *network.Sim) {
	in := po.inj
	pPkt := in.RateFlits / in.meanLen()
	for i, src := range in.sources {
		if po.remaining[i] <= 0 {
			po.on[i] = !po.on[i]
			po.remaining[i] = paretoPeriod(in.rng, po.on[i])
		}
		po.remaining[i]--
		if po.on[i] {
			in.offerFloat64(s, src, pPkt)
		}
	}
}

func TestBernoulliThresholdMatchesFloatTest(t *testing.T) {
	for _, p := range []float64{0, 5e-324, 0.0005 / 3, 0.09 / 3, 0.5, 1 - 1.0/(1<<53), 1, 1.5, -1, math.NaN(), math.Inf(1)} {
		b := NewBernoulli(p)
		// Every k within 2 of the threshold, of the resample boundary and
		// of both ends of Int63's range.
		for _, around := range []uint64{b.t, resampleFrom, 0, math.MaxInt64} {
			for d := uint64(0); d < 5; d++ {
				k := around + d - 2
				if k > math.MaxInt64 {
					continue // wrapped below 0, or past the top
				}
				if got, want := k < b.t, float64(int64(k))/(1<<63) < p; got != want {
					t.Errorf("p=%g k=%d: integer test %v, float test %v (t=%d)", p, k, got, want, b.t)
				}
			}
		}
	}
	// The resample boundary is where the quotient first rounds up to 1.
	if float64(int64(resampleFrom))/(1<<63) != 1 || float64(int64(resampleFrom-1))/(1<<63) == 1 {
		t.Fatal("resampleFrom is not the least integer Float64 discards")
	}
	if (Bernoulli{}) != NewBernoulli(0) {
		t.Fatal("the zero Bernoulli is not p = 0")
	}
}

// script is a rand.Source that replays fixed values and counts the draws.
type script struct {
	vals []int64
	n    int
}

func (s *script) Int63() int64 { v := s.vals[s.n%len(s.vals)]; s.n++; return v }
func (s *script) Seed(int64)   {}

// scripted returns a Stream whose buffer repeats vals, to be read before
// its first refill.
func scripted(vals []int64) *Stream {
	st := &Stream{}
	for i := range st.h {
		st.h[i] = uint64(vals[i%len(vals)])
	}
	return st
}

func TestBernoulliResamplesLikeFloat64(t *testing.T) {
	vals := []int64{
		math.MaxInt64, resampleFrom, resampleFrom - 1, // two discarded, one kept
		5,
		resampleFrom + 7, 1 << 62,
		0,
		resampleFrom, resampleFrom, resampleFrom, 1 << 61,
	}
	// Eleven values make five trials; 250 trials stay inside the buffer.
	const trials = 250
	for _, p := range []float64{0, 0.0005 / 3, 0.25, 0.5, 1, 1.5} {
		b := NewBernoulli(p)
		// One trial per Next call, then the same trials as one scan.
		fs, one, scan := &script{vals: vals}, scripted(vals), scripted(vals)
		frng := rand.New(fs)
		next := scan.Next(b, 0, trials)
		for i := 0; i < trials; i++ {
			want, got := frng.Float64() < p, one.Next(b, i, i+1) == i
			if got != want || one.pos != fs.n {
				t.Fatalf("p=%g trial %d: Next %v after %d draws, Float64 form %v after %d", p, i, got, one.pos, want, fs.n)
			}
			if i == next {
				if !want {
					t.Fatalf("p=%g: the scan stopped at trial %d, which misses", p, i)
				}
				if scan.pos != fs.n {
					t.Fatalf("p=%g: the scan hit trial %d after %d draws, Float64 form after %d", p, i, scan.pos, fs.n)
				}
				next = scan.Next(b, i+1, trials)
			} else if want {
				t.Fatalf("p=%g: the scan skipped trial %d, which hits", p, i)
			}
		}
		if next != trials || scan.pos != fs.n {
			t.Fatalf("p=%g: the scan ended at %d after %d draws, Float64 form %d trials after %d", p, next, scan.pos, trials, fs.n)
		}
		if fs.n <= trials || fs.n > streamLen {
			t.Fatalf("%d draws: the script must resample and stay inside one buffer", fs.n)
		}
	}
}

// drainEnqueued drops everything the last Tick enqueued at s, in source,
// vnet and ring order, and returns it. FilterQueued recycles the dropped
// packets, but only the next NewPacket reuses one, so they stay intact
// until the next Tick.
func drainEnqueued(s *network.Sim, sources []geom.NodeID, out []*network.Packet) []*network.Packet {
	for _, src := range sources {
		s.FilterQueued(src, func(p *network.Packet) bool {
			out = append(out, p)
			return false
		})
	}
	return out
}

func samePacket(a, b *network.Packet) bool {
	if a.ID != b.ID || a.Src != b.Src || a.Dst != b.Dst || a.Vnet != b.Vnet || a.Len != b.Len || len(a.Route) != len(b.Route) {
		return false
	}
	for i := range a.Route {
		if a.Route[i] != b.Route[i] {
			return false
		}
	}
	return true
}

// twinTicks runs the two tick functions for the given cycles over twin
// simulators and asserts that every enqueued packet matches.
func twinTicks(t *testing.T, topo *topology.Topology, cycles int, tick, oracle func(cyc int, s *network.Sim)) (packets int) {
	t.Helper()
	sa := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	sb := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	sources := topo.AliveRouters()
	var pa, pb []*network.Packet
	for cyc := 0; cyc < cycles; cyc++ {
		tick(cyc, sa)
		oracle(cyc, sb)
		if sa.Stats.Offered == int64(packets) && sb.Stats.Offered == int64(packets) {
			continue
		}
		pa, pb = drainEnqueued(sa, sources, pa[:0]), drainEnqueued(sb, sources, pb[:0])
		if len(pa) != len(pb) {
			t.Fatalf("cycle %d: %d packets enqueued, oracle %d", cyc, len(pa), len(pb))
		}
		for i := range pa {
			if !samePacket(pa[i], pb[i]) {
				t.Fatalf("cycle %d: packet %+v, oracle %+v", cyc, pa[i], pb[i])
			}
		}
		packets += len(pa)
	}
	if sa.Stats != sb.Stats {
		t.Fatalf("Stats diverged: %+v, oracle %+v", sa.Stats, sb.Stats)
	}
	return packets
}

func TestInjectorMatchesFloat64Form(t *testing.T) {
	const cycles = 200000
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 12, 3)
	alg := routing.NewMinimal(topo)
	patterns := []Pattern{NewUniformRandom(topo.AliveRouters()), BitComplement{Width: 8, Height: 8}}
	for _, p := range patterns {
		t.Run(p.Name(), func(t *testing.T) {
			a := NewInjector(topo.AliveRouters(), alg, p, 0.09, rand.New(rand.NewSource(5)))
			// The oracle draws from math/rand itself, not from a Stream.
			b := NewInjector(topo.AliveRouters(), alg, p, 0.09, rand.New(rand.NewSource(5)))
			b.rng = rand.New(rand.NewSource(5))
			// The rate drops to the idle workload's half way, and the mix
			// moves with it: both change the per-node probability.
			retune := func(cyc int, in *Injector) {
				if cyc == cycles/2 {
					in.RateFlits, in.CtrlFraction = 0.0005, 0.25
				}
			}
			n := twinTicks(t, topo, cycles, func(cyc int, s *network.Sim) {
				retune(cyc, a)
				a.Tick(s)
			}, func(cyc int, s *network.Sim) {
				retune(cyc, b)
				b.tickFloat64(s)
			})
			if n < 10000 {
				t.Fatalf("vacuous: %d packets", n)
			}
			if x, y := a.rng.Uint64(), b.rng.Uint64(); x != y {
				t.Fatalf("stream positions differ after the run: next draw %d, oracle %d", x, y)
			}
		})
	}
}

func TestParetoOnOffMatchesFloat64Form(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 12, 3)
	alg := routing.NewMinimal(topo)
	a := NewParetoOnOff(topo.AliveRouters(), alg, NewUniformRandom(topo.AliveRouters()), 0.3, rand.New(rand.NewSource(6)))
	b := NewParetoOnOff(topo.AliveRouters(), alg, NewUniformRandom(topo.AliveRouters()), 0.3, rand.New(rand.NewSource(6)))
	// The oracle draws from math/rand itself, its initial phases too.
	b.inj.rng = rand.New(rand.NewSource(6))
	b.drawPhases()
	n := twinTicks(t, topo, 50000,
		func(_ int, s *network.Sim) { a.Tick(s) },
		func(_ int, s *network.Sim) { b.tickFloat64(s) })
	if n < 10000 {
		t.Fatalf("vacuous: %d packets", n)
	}
	if x, y := a.inj.rng.Uint64(), b.inj.rng.Uint64(); x != y {
		t.Fatalf("stream positions differ after the run: next draw %d, oracle %d", x, y)
	}
}

// BenchmarkInjectorTickIdle32x32 is idle_mesh_32x32's traffic side: 1024
// sources at 0.0005 flits/node/cycle, so a Tick is 1024 misses and, one
// time in six, a packet. The sim is drained outside the timer.
func BenchmarkInjectorTickIdle32x32(b *testing.B) {
	topo := topology.NewMesh(32, 32)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	in := NewInjector(topo.AliveRouters(), routing.NewMinimal(topo), NewUniformRandom(topo.AliveRouters()), 0.0005, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Tick(s)
		if i&1023 == 1023 {
			b.StopTimer()
			s.Run(300)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/node-cycle")
}

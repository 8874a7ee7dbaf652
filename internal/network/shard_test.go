package network

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// runShardWorkload drives one seeded random workload on a fresh 8x6
// mesh sim with the given shard count and returns the final sim. The
// traffic schedule depends only on the seed, so two runs at different
// shard counts execute the identical offered load. With hooks set, a
// VCFilter and an (inert) OutputOverride are installed, which moves
// allocation from the fused pass to the generic AllocateNode and keeps
// every cycle on the sequential sweep.
func runShardWorkload(t *testing.T, shards int, seed int64, cycles int, hooks bool) *Sim {
	t.Helper()
	topo := topology.RandomIrregular(8, 6, topology.LinkFaults, 8, seed)
	s := New(topo, Config{Shards: shards}, rand.New(rand.NewSource(seed)))
	if hooks {
		s.VCFilter = func(p *Packet, dst geom.NodeID, in geom.Direction, vcIdx int) bool {
			return vcIdx != 0 || int(dst)%2 == 0
		}
		s.OutputOverride = func(p *Packet, at geom.NodeID) (geom.Direction, bool) { return 0, false }
	}
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(seed + 1))
	alive := topo.AliveRouters()
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc < cycles*2/3 {
			for _, src := range alive {
				if rng.Float64() >= 0.10 {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				if dst == src {
					continue
				}
				r, ok := min.Route(src, dst, rng)
				if !ok {
					s.Drop()
					continue
				}
				ln := 1 + 4*rng.Intn(2)
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(s.Cfg.NumVnets), ln, r))
			}
		}
		s.Step()
	}
	return s
}

// TestShardedStepMatchesSequential proves the sharded stepper lands on
// the sequential core's exact Stats and occupancy over seeded random
// workloads at several shard counts (the refmodel differential harness
// does the heavyweight three-way version; this is the fast in-package
// guard).
func TestShardedStepMatchesSequential(t *testing.T) {
	for _, seed := range []int64{3, 17, 40} {
		for _, hooks := range []bool{false, true} {
			want := runShardWorkload(t, 1, seed, 700, hooks)
			for _, n := range []int{2, 3, 6} {
				got := runShardWorkload(t, n, seed, 700, hooks)
				if got.Stats != want.Stats {
					t.Fatalf("seed %d shards %d hooks %v: stats diverged\n got %+v\nwant %+v",
						seed, n, hooks, got.Stats, want.Stats)
				}
				if got.InFlight() != want.InFlight() || got.QueuedPackets() != want.QueuedPackets() {
					t.Fatalf("seed %d shards %d hooks %v: occupancy diverged", seed, n, hooks)
				}
				if par := got.StepperCounters().ParallelCycles; (par == 0) != hooks {
					t.Fatalf("seed %d shards %d hooks %v: %d parallel cycles (want none under hooks, some without)",
						seed, n, hooks, par)
				}
			}
		}
	}
}

// TestShardPartition checks the row-band partition: every router is
// owned by exactly one shard, bands are contiguous and ordered, and the
// requested count clamps to the mesh height.
func TestShardPartition(t *testing.T) {
	for _, tc := range []struct{ w, h, req, want int }{
		{8, 8, 4, 4},
		{8, 8, 64, 8},
		{4, 1, 8, 1},
		{16, 16, 3, 3},
		{5, 7, 0, 1},
		{5, 7, -2, 1},
	} {
		s := New(topology.NewMesh(tc.w, tc.h), Config{Shards: tc.req}, nil)
		if s.Shards() != tc.want {
			t.Fatalf("%dx%d Shards=%d: effective %d, want %d", tc.w, tc.h, tc.req, s.Shards(), tc.want)
		}
		if tc.want == 1 {
			continue
		}
		prev := int8(0)
		for id, k := range s.shardOf {
			if k < prev {
				t.Fatalf("%dx%d: shard ids not monotone at router %d", tc.w, tc.h, id)
			}
			prev = k
		}
		if int(prev) != tc.want-1 {
			t.Fatalf("%dx%d: highest shard %d, want %d", tc.w, tc.h, prev, tc.want-1)
		}
	}
}

// TestHooksRunOnSteppingGoroutine pins the contract scheme authors read:
// every hook runs on the stepping goroutine. A saturated 8x8 at Shards 4
// with a VCFilter installed must never see two invocations in flight at
// once (the filter is called from no shard worker) and must stay off the
// parallel sweep entirely; the same run without the hook must reach it.
func TestHooksRunOnSteppingGoroutine(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	min := routing.NewMinimal(topo)
	for _, hooked := range []bool{false, true} {
		s := New(topo, Config{Shards: 4}, rand.New(rand.NewSource(3)))
		var inFlight, calls, overlaps atomic.Int64
		if hooked {
			s.VCFilter = func(p *Packet, dst geom.NodeID, in geom.Direction, vcIdx int) bool {
				if inFlight.Add(1) > 1 {
					overlaps.Add(1)
				}
				calls.Add(1)
				runtime.Gosched() // widen the window a concurrent caller would land in
				inFlight.Add(-1)
				return true
			}
		}
		rng := rand.New(rand.NewSource(4))
		for cyc := 0; cyc < 300; cyc++ {
			for n := 0; n < 64; n++ {
				dst := geom.NodeID(rng.Intn(64))
				if rng.Float64() >= 0.4 || dst == geom.NodeID(n) {
					continue
				}
				r, _ := min.Route(geom.NodeID(n), dst, rng)
				s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 5, r))
			}
			s.Step()
		}
		par := s.StepperCounters().ParallelCycles
		if !hooked {
			if par == 0 {
				t.Fatal("hook-free saturated run never took the parallel sweep — the test is vacuous")
			}
			continue
		}
		if calls.Load() == 0 {
			t.Fatal("VCFilter was never consulted")
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("VCFilter ran concurrently with itself %d times", n)
		}
		if par != 0 {
			t.Fatalf("%d cycles took the parallel sweep with a VCFilter installed", par)
		}
	}
}

// TestShardedDeterministicAcrossRuns re-runs the same sharded workload
// and demands bit-identical outcomes: goroutine scheduling must never
// leak into results.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	a := runShardWorkload(t, 4, 9, 500, false)
	b := runShardWorkload(t, 4, 9, 500, false)
	if a.Stats != b.Stats || a.InFlight() != b.InFlight() {
		t.Fatalf("sharded runs diverged:\n a %+v\n b %+v", a.Stats, b.Stats)
	}
}

// BenchmarkShardedStep measures the sharded stepper against the
// sequential one on a saturated 16x16 mesh (sbsweep -fig scalegrid does
// the wall-clock comparison on the full recovery storm).
func BenchmarkShardedStep(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			topo := topology.NewMesh(16, 16)
			s := New(topo, Config{Shards: n}, rand.New(rand.NewSource(1)))
			min := routing.NewMinimal(topo)
			rng := rand.New(rand.NewSource(2))
			alive := topo.AliveRouters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range alive {
					if rng.Float64() >= 0.3 {
						continue
					}
					dst := alive[rng.Intn(len(alive))]
					if dst == src {
						continue
					}
					r, ok := min.Route(src, dst, rng)
					if !ok {
						continue
					}
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 5, r))
				}
				s.Step()
			}
		})
	}
}

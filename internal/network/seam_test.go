package network

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// seamRouters computes, from the shard partition, the set of routers
// with at least one alive link to a router owned by another shard — the
// only routers allowed to exchange cross-shard state.
func seamRouters(s *Sim) map[geom.NodeID]bool {
	seam := make(map[geom.NodeID]bool)
	for id := range s.Routers {
		n := geom.NodeID(id)
		for _, d := range geom.LinkDirs {
			if !s.Topo.HasLink(n, d) {
				continue
			}
			if s.shardOf[s.Topo.Neighbor(n, d)] != s.shardOf[n] {
				seam[n] = true
				break
			}
		}
	}
	return seam
}

// driveSeamWorkload runs a seeded random workload (heavy enough that
// busy cycles take the parallel sweep) with an xfill observer asserting
// the seam invariant: every cross-shard buffer fill happens between two
// seam routers in adjacent shards. Returns the sim and the number of
// observed crossings.
func driveSeamWorkload(t *testing.T, topo *topology.Topology, shards int, seed int64, cycles int, rate float64) (*Sim, int64) {
	t.Helper()
	s := New(topo, Config{Shards: shards}, rand.New(rand.NewSource(seed)))
	var crossings int64
	if s.Shards() > 1 {
		seam := seamRouters(s)
		s.SetXFillObserver(func(src, dst geom.NodeID) {
			crossings++
			if s.shardOf[src] == s.shardOf[dst] {
				t.Fatalf("xfill %v->%v within one shard", src, dst)
			}
			if d := int(s.shardOf[src]) - int(s.shardOf[dst]); d != 1 && d != -1 {
				t.Fatalf("xfill %v->%v skips shards (%d -> %d)", src, dst, s.shardOf[src], s.shardOf[dst])
			}
			if !seam[src] || !seam[dst] {
				t.Fatalf("xfill %v->%v involves a non-seam router", src, dst)
			}
		})
	}
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(seed + 1))
	alive := topo.AliveRouters()
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc < cycles*2/3 {
			for _, src := range alive {
				if rng.Float64() >= rate {
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
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(s.Cfg.NumVnets), 1+4*rng.Intn(2), r))
			}
		}
		s.Step()
	}
	return s, crossings
}

// TestSeamInvariantSharded is the randomized seam property test: across
// random irregular topologies (link and router faults), every
// cross-shard exchange of the parallel commit happens between seam
// routers only, and Stats land byte-identical across shards 1/2/4/8.
func TestSeamInvariantSharded(t *testing.T) {
	totalCrossings := int64(0)
	for seed := int64(1); seed <= 8; seed++ {
		hrng := rand.New(rand.NewSource(seed * 101))
		w, h := 5+hrng.Intn(6), 5+hrng.Intn(6)
		kind := topology.LinkFaults
		if hrng.Intn(3) == 0 {
			kind = topology.RouterFaults
		}
		topo := topology.RandomIrregular(w, h, kind, hrng.Intn(1+w*h/5), seed)
		want, _ := driveSeamWorkload(t, topo, 1, seed, 600, 0.12)
		for _, n := range []int{2, 4, 8} {
			got, crossings := driveSeamWorkload(t, topo, n, seed, 600, 0.12)
			totalCrossings += crossings
			if got.Stats != want.Stats {
				t.Fatalf("seed %d %dx%d shards %d: stats diverged\n got %+v\nwant %+v",
					seed, w, h, n, got.Stats, want.Stats)
			}
			if got.InFlight() != want.InFlight() || got.QueuedPackets() != want.QueuedPackets() {
				t.Fatalf("seed %d shards %d: occupancy diverged", seed, n)
			}
		}
	}
	if totalCrossings == 0 {
		t.Fatal("no seam crossings observed — the invariant was never exercised")
	}
}

// TestShardedParity32x32 scales the parity check to the ROADMAP's 32x32
// target: Stats byte-identical across
// shards 1/2/4/8 under a saturating workload on a faulted mesh. This is
// the CI 32x32 sharded differential tier's anchor test.
func TestShardedParity32x32(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 parity is the long-tier differential")
	}
	topo := topology.RandomIrregular(32, 32, topology.LinkFaults, 30, 7)
	want, _ := driveSeamWorkload(t, topo, 1, 7, 500, 0.15)
	if want.Stats.Delivered == 0 {
		t.Fatal("32x32 workload delivered nothing — test is vacuous")
	}
	for _, n := range []int{2, 4, 8} {
		got, crossings := driveSeamWorkload(t, topo, n, 7, 500, 0.15)
		if crossings == 0 {
			t.Fatalf("shards %d: no seam crossings on a saturated 32x32", n)
		}
		if got.Stats != want.Stats {
			t.Fatalf("32x32 shards %d: stats diverged\n got %+v\nwant %+v", n, got.Stats, want.Stats)
		}
		if got.InFlight() != want.InFlight() || got.QueuedPackets() != want.QueuedPackets() {
			t.Fatalf("32x32 shards %d: occupancy diverged", n)
		}
		ctr := got.StepperCounters()
		if ctr.ParallelCycles == 0 {
			t.Fatalf("shards %d: parallel path never engaged (counters %+v)", n, ctr)
		}
	}
}

// TestStepperPathCounters pins what the counters mean: every cycle is
// either skipped by a quiet window or swept (QuietCycles + DenseCycles
// partition the run), the parallel sweep is a subset of the swept
// cycles that a bursty workload on a sharded Sim does reach, a drained
// network with no hooks fast-forwards, and a VCFilter keeps every cycle
// on the sequential sweep while ring rules do not.
func TestStepperPathCounters(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := New(topo, Config{Shards: 4}, rand.New(rand.NewSource(3)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(4))
	for cyc := 0; cyc < 2000; cyc++ {
		// Bursts saturate (parallel sweep), gaps drain to idle
		// (sequential sweep, then quiet once the last packet lands).
		if cyc%500 < 30 {
			for n := 0; n < 64; n++ {
				if rng.Float64() >= 0.4 {
					continue
				}
				dst := geom.NodeID(rng.Intn(64))
				if dst == geom.NodeID(n) {
					continue
				}
				r, ok := min.Route(geom.NodeID(n), dst, rng)
				if !ok {
					continue
				}
				s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 1, r))
			}
		}
		s.Step()
	}
	ctr := s.StepperCounters()
	if ctr.ParallelCycles == 0 || ctr.QuietCycles == 0 {
		t.Fatalf("expected parallel and quiet cycles, got %+v", ctr)
	}
	if ctr.ParallelCycles >= ctr.DenseCycles {
		t.Fatalf("draining tails should sweep sequentially, got %+v", ctr)
	}
	if got := ctr.QuietCycles + ctr.DenseCycles; got != 2000 {
		t.Fatalf("counters don't partition the run: %+v sums to %d, want 2000", ctr, got)
	}
	// A VCFilter must keep the cycle off the parallel sweep; the same busy
	// workload without it must reach it, and so must one under ring rules,
	// which are state the fused pass reads.
	for _, mode := range []string{"bare", "vcfilter", "ring"} {
		s2 := New(topo, Config{Shards: 4}, rand.New(rand.NewSource(3)))
		switch mode {
		case "vcfilter":
			s2.VCFilter = func(*Packet, geom.NodeID, geom.Direction, int) bool { return true }
		case "ring":
			for id := range s2.Routers {
				s2.Routers[id].Ring = Ring{Active: true, In: geom.West, Out: geom.East}
			}
		}
		for n := 0; n < 64; n++ {
			r, ok := min.Route(geom.NodeID(n), geom.NodeID(63-n), rng)
			if !ok {
				continue
			}
			s2.Enqueue(s2.NewPacket(geom.NodeID(n), geom.NodeID(63-n), 0, 5, r))
		}
		s2.Run(50)
		if c2 := s2.StepperCounters(); (c2.ParallelCycles == 0) != (mode == "vcfilter") {
			t.Fatalf("%s: parallel sweep engagement wrong, got %+v", mode, c2)
		}
	}
}

// TestQuietEpochInvalidation proves the quiet window tears down on
// every out-of-band mutation channel: an Enqueue landing mid-window
// must be injected at exactly the cycle the sequential semantics
// dictate, not after the window.
func TestQuietEpochInvalidation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		topo := topology.NewMesh(6, 6)
		s := New(topo, Config{Shards: shards}, rand.New(rand.NewSource(11)))
		min := routing.NewMinimal(topo)
		rng := rand.New(rand.NewSource(12))
		// Drain fully, then fast-forward far.
		r0, _ := min.Route(0, 35, rng)
		s.Enqueue(s.NewPacket(0, 35, 0, 5, r0))
		s.Run(300)
		if s.StepperCounters().QuietCycles == 0 {
			t.Fatalf("shards=%d: drained network never went quiet", shards)
		}
		// Mid-quiet enqueue: the packet must inject this very cycle.
		r1, _ := min.Route(7, 28, rng)
		p := s.NewPacket(7, 28, 0, 1, r1)
		s.Enqueue(p)
		at := s.Now
		s.Step()
		if p.InjectedAt != at {
			t.Fatalf("shards=%d: packet enqueued during quiet injected at %d, want %d",
				shards, p.InjectedAt, at)
		}
		s.Run(100)
		if p.DeliveredAt < 0 {
			t.Fatalf("shards=%d: mid-quiet packet never delivered", shards)
		}
	}
}

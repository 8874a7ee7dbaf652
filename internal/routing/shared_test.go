package routing

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

// TestSharedMinimalMatchesOwned: a masks-only MinimalFor table must answer
// every query exactly as a distance-keeping NewMinimal one, and route with
// the same rng draws, over irregular topologies with link and router
// faults (unreachable pairs and dead routers included). Seeds alternate
// the fault kind; the all-pairs sweep is quadratic in the node count, so
// the two large sizes run fewer seeds (40 in all; 14 under -short).
func TestSharedMinimalMatchesOwned(t *testing.T) {
	kinds := [2]topology.FaultKind{topology.LinkFaults, topology.RouterFaults}
	for _, c := range []struct{ w, h, seeds int }{{3, 5, 16}, {8, 8, 16}, {13, 21, 6}, {32, 32, 2}} {
		seeds := c.seeds
		if testing.Short() {
			seeds = min(seeds, 4)
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			kind := kinds[seed%2]
			k := 1 + int(seed)*7%max(topology.MaxFaults(c.w, c.h, kind)/5, 1)
			checkSharedMatchesOwned(t, topology.RandomIrregular(c.w, c.h, kind, k, seed))
		}
	}
}

func checkSharedMatchesOwned(t *testing.T, topo *topology.Topology) {
	t.Helper()
	shared, owned := newMinimal(topo, true), NewMinimal(topo)
	if shared.tab.keepsDist() {
		t.Fatal("shared table keeps distances")
	}
	n := topo.NumNodes()
	ra, rb := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
	var bufA, bufB Route
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := geom.NodeID(s), geom.NodeID(d)
			if shared.NextHopMask(src, dst) != owned.NextHopMask(src, dst) ||
				shared.Reachable(src, dst) != owned.Reachable(src, dst) ||
				shared.Distance(src, dst) != owned.Distance(src, dst) {
				t.Fatalf("%dx%d %v→%v: shared (mask %#x, reach %v, dist %d) != owned (mask %#x, reach %v, dist %d)",
					topo.Width(), topo.Height(), src, dst,
					shared.NextHopMask(src, dst), shared.Reachable(src, dst), shared.Distance(src, dst),
					owned.NextHopMask(src, dst), owned.Reachable(src, dst), owned.Distance(src, dst))
			}
			var okA, okB bool
			bufA, okA = shared.AppendRoute(bufA[:0], src, dst, ra)
			bufB, okB = owned.AppendRoute(bufB[:0], src, dst, rb)
			if okA != okB || !slices.Equal(bufA, bufB) {
				t.Fatalf("%v→%v: shared route %v (%v) != owned %v (%v)", src, dst, bufA, okA, bufB, okB)
			}
		}
		if ra.Int63() != rb.Int63() {
			t.Fatalf("rng streams diverged after source %d", s)
		}
	}
}

// allocBytes returns the heap bytes this package's own code allocates
// while f runs. It samples every allocation with its stack and counts
// those made under a non-test frame of this package, so what the runtime
// and other tests allocate meanwhile does not count. Two collections
// publish the profile up to the read.
func allocBytes(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	count := func() int64 {
		runtime.GC()
		runtime.GC()
		n, ok := runtime.MemProfile(nil, true)
		var recs []runtime.MemProfileRecord
		for !ok {
			recs = make([]runtime.MemProfileRecord, n+50)
			n, ok = runtime.MemProfile(recs, true)
		}
		var bytes int64
		for _, r := range recs[:n] {
			frames := runtime.CallersFrames(r.Stack())
			for fr, more := frames.Next(); ; fr, more = frames.Next() {
				if strings.HasPrefix(fr.Function, "repro/internal/routing.") && !strings.HasSuffix(fr.File, "_test.go") {
					bytes += r.AllocBytes
					break
				}
				if !more {
					break
				}
			}
		}
		return bytes
	}
	before := count()
	f()
	return count() - before
}

// TestMinimalForHoldsNoDistances pins the shared table's footprint: a
// cold 32x32 MinimalFor keeps masks only (the distance-keeping compile
// allocates ~3.2 MB, two thirds of it distances).
func TestMinimalForHoldsNoDistances(t *testing.T) {
	ResetTableCache()
	defer ResetTableCache()
	topo := topology.NewMesh(32, 32)
	var m *Minimal
	if got := allocBytes(func() { m = MinimalFor(topo) }); got > 1_400_000 {
		t.Fatalf("cold MinimalFor allocated %d B, want <= 1400000", got)
	} else {
		t.Logf("cold MinimalFor allocated %d B", got)
	}
	if b := m.tableBytes(); b > 1_100_000 {
		t.Fatalf("MinimalFor tableBytes %d, want <= 1100000", b)
	}
}

// BenchmarkMinimalFor32x32 times one cold MinimalFor compile of a 32x32
// mesh (run with -benchmem).
func BenchmarkMinimalFor32x32(b *testing.B) {
	topo := topology.NewMesh(32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetTableCache()
		MinimalFor(topo)
	}
	ResetTableCache()
}

// irregular8x8 is the branch-heavy compile case: the paper's 8x8 mesh
// with 25 link faults, on eight seeds.
func irregular8x8() []*topology.Topology {
	topos := make([]*topology.Topology, 8)
	for i := range topos {
		topos[i] = topology.RandomIrregular(8, 8, topology.LinkFaults, 25, int64(i+1))
	}
	return topos
}

// BenchmarkMinimalForIrregular8x8 times one cold MinimalFor compile of an
// 8x8 mesh with 25 link faults, cycling over eight topologies.
func BenchmarkMinimalForIrregular8x8(b *testing.B) {
	topos := irregular8x8()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetTableCache()
		MinimalFor(topos[i%len(topos)])
	}
	ResetTableCache()
}

// BenchmarkUpDownForMedian8x8 times one cold UpDownFor(RootMedian) tree of
// the same topologies: the median election is most of it.
func BenchmarkUpDownForMedian8x8(b *testing.B) {
	topos := irregular8x8()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetTableCache()
		UpDownFor(topos[i%len(topos)], RootMedian)
	}
	ResetTableCache()
}

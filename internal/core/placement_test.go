package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/topology"
)

func TestPlacementCount8x8Is21(t *testing.T) {
	if got := PlacementCount(8, 8); got != 21 {
		t.Fatalf("8x8 bubble count = %d, want 21 (paper Section III)", got)
	}
	if got := len(Placement(8, 8)); got != 21 {
		t.Fatalf("Placement(8,8) has %d nodes, want 21", got)
	}
}

func TestPlacementCount16x16Is89(t *testing.T) {
	if got := PlacementCount(16, 16); got != 89 {
		t.Fatalf("16x16 bubble count = %d, want 89 (paper Table I)", got)
	}
}

// The larger meshes the scaling experiments run at (sbsweep -fig
// scalegrid, the 32x32 bench scenario): beyond the paper's table, so
// the expected counts come from the closed form — pinned here so a
// placement change shows up as a placement diff, not as a mysterious
// Stats divergence in the 32x32/64x64 differential and scaling tiers.
func TestPlacementCountScalingMeshes(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{32, 369}, {64, 1505}} {
		if got := PlacementCount(tc.n, tc.n); got != tc.want {
			t.Fatalf("%dx%d bubble count = %d, want %d", tc.n, tc.n, got, tc.want)
		}
		if got := len(Placement(tc.n, tc.n)); got != tc.want {
			t.Fatalf("Placement(%d,%d) has %d nodes, want %d", tc.n, tc.n, got, tc.want)
		}
	}
}

func TestNoBubblesOnFirstRowOrColumn(t *testing.T) {
	for i := 0; i < 32; i++ {
		if HasStaticBubble(geom.Coord{X: 0, Y: i}) {
			t.Fatalf("bubble on first column at y=%d", i)
		}
		if HasStaticBubble(geom.Coord{X: i, Y: 0}) {
			t.Fatalf("bubble on first row at x=%d", i)
		}
	}
}

func TestPlacementConditions(t *testing.T) {
	// Spot-check the three conditions from Section III.
	wants := []struct {
		c    geom.Coord
		want bool
	}{
		{geom.Coord{X: 1, Y: 1}, true},  // cond 1
		{geom.Coord{X: 5, Y: 1}, true},  // cond 1 (1 ≡ 5 mod 4)
		{geom.Coord{X: 1, Y: 3}, true},  // cond 2
		{geom.Coord{X: 5, Y: 7}, true},  // cond 2
		{geom.Coord{X: 3, Y: 1}, true},  // cond 3
		{geom.Coord{X: 7, Y: 5}, true},  // cond 3
		{geom.Coord{X: 4, Y: 4}, true},  // cond 1 (0 ≡ 0)
		{geom.Coord{X: 2, Y: 1}, false}, //
		{geom.Coord{X: 2, Y: 4}, false}, // (4k+2, 4l)
		{geom.Coord{X: 1, Y: 4}, false}, // (4k+1, 4l)
		{geom.Coord{X: 3, Y: 4}, false}, // (4k+3, 4l)
		{geom.Coord{X: 2, Y: 3}, false}, // (4k+2, 4l-1)
		{geom.Coord{X: 2, Y: 5}, false}, // (4k+2, 4l+1)
		{geom.Coord{X: 0, Y: 0}, false}, // first row/col
	}
	for _, w := range wants {
		if got := HasStaticBubble(w.c); got != w.want {
			t.Errorf("HasStaticBubble(%v) = %v, want %v", w.c, got, w.want)
		}
	}
}

func TestClosedFormMatchesEnumeration(t *testing.T) {
	for w := 1; w <= 20; w++ {
		for h := 1; h <= 20; h++ {
			if e, c := PlacementCount(w, h), PlacementCountClosedForm(w, h); e != c {
				t.Fatalf("%dx%d: enumeration %d != closed form %d", w, h, e, c)
			}
		}
	}
}

func TestClosedFormMatchesEnumerationProperty(t *testing.T) {
	f := func(w, h uint8) bool {
		width, height := int(w%64)+1, int(h%64)+1
		return PlacementCount(width, height) == PlacementCountClosedForm(width, height)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacementScalesLinearlyInMinDimension(t *testing.T) {
	// The paper notes the count scales with min(m, n): a 4×N strip should
	// grow linearly and stay far below N²/2.
	prev := 0
	for n := 8; n <= 64; n *= 2 {
		c := PlacementCount(4, n)
		if c <= prev {
			t.Fatalf("count not growing: %d then %d", prev, c)
		}
		if c > 2*n {
			t.Fatalf("4x%d count %d super-linear", n, c)
		}
		prev = c
	}
}

func TestCoverageLemmaOnHealthyMeshes(t *testing.T) {
	for _, size := range []struct{ w, h int }{
		{2, 2}, {3, 3}, {4, 4}, {5, 5}, {8, 8}, {9, 9}, {12, 12}, {13, 13},
		{2, 9}, {9, 2}, {3, 12}, {16, 5},
	} {
		topo := topology.NewMesh(size.w, size.h)
		if !VerifyCoverage(topo) {
			cyc := CoverageCounterexample(topo)
			t.Fatalf("%dx%d mesh: cycle avoids all bubbles: %v", size.w, size.h, cyc)
		}
	}
}

func TestCoverageLemmaOnRandomIrregularTopologies(t *testing.T) {
	// The corollary: every irregular topology derived from the mesh also
	// has every cycle covered.
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		topo := topology.NewMesh(8, 8)
		topology.RandomLinkFaults(topo, rng, rng.Intn(60))
		topology.RandomRouterFaults(topo, rng, rng.Intn(20))
		if !VerifyCoverage(topo) {
			t.Fatalf("trial %d: coverage violated on %v: cycle %v",
				trial, topo, CoverageCounterexample(topo))
		}
	}
}

func TestCoverageLemmaLargerMeshRandomFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		topo := topology.NewMesh(12, 12)
		topology.RandomLinkFaults(topo, rng, rng.Intn(100))
		if !VerifyCoverage(topo) {
			t.Fatalf("12x12 trial %d: coverage violated", trial)
		}
	}
}

// TestCoverageLemmaExhaustiveSmallMeshes enumerates every derivative of
// the 4x4 mesh with at most 4 dead links (12 951 topologies) or at most
// 2 dead routers (137), and of the 5x5 mesh with at most 3 dead links
// (10 701), and requires the placement lemma on each: no sampled fault
// set can hide a coverage hole at these sizes.
func TestCoverageLemmaExhaustiveSmallMeshes(t *testing.T) {
	check := func(topo *topology.Topology) {
		if !VerifyCoverage(topo) {
			t.Fatalf("coverage violated on %v: cycle %v", topo, CoverageCounterexample(topo))
		}
	}
	// visit calls check on topo with every subset of at most k of the
	// remaining elements disabled (disable/enable restore topo in place).
	var visit func(topo *topology.Topology, from, n, k int, disable, enable func(i int)) int
	visit = func(topo *topology.Topology, from, n, k int, disable, enable func(i int)) int {
		check(topo)
		seen := 1
		if k == 0 {
			return seen
		}
		for i := from; i < n; i++ {
			disable(i)
			seen += visit(topo, i+1, n, k-1, disable, enable)
			enable(i)
		}
		return seen
	}
	for _, tc := range []struct{ w, h, links, routers, want int }{
		{4, 4, 4, 0, 12951},
		{4, 4, 0, 2, 137},
		{5, 5, 3, 0, 10701},
	} {
		topo := topology.NewMesh(tc.w, tc.h)
		var got int
		if tc.links > 0 {
			links := topo.AliveUndirectedLinks()
			got = visit(topo, 0, len(links), tc.links,
				func(i int) { topo.DisableLink(links[i].From, links[i].Dir) },
				func(i int) { topo.EnableLink(links[i].From, links[i].Dir) })
		} else {
			got = visit(topo, 0, topo.NumNodes(), tc.routers,
				func(i int) { topo.DisableRouter(geom.NodeID(i)) },
				func(i int) { topo.EnableRouter(geom.NodeID(i)) })
		}
		if got != tc.want {
			t.Fatalf("%dx%d: visited %d topologies, want %d", tc.w, tc.h, got, tc.want)
		}
	}
}

func TestCustomCoverage(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	// Bubble-everywhere trivially covers.
	all := map[geom.NodeID]bool{}
	for i := 0; i < 16; i++ {
		all[geom.NodeID(i)] = true
	}
	if !VerifyCustomCoverage(topo, all) {
		t.Fatal("bubble-everywhere must cover")
	}
	// No bubbles cannot cover a mesh with cycles.
	if VerifyCustomCoverage(topo, map[geom.NodeID]bool{}) {
		t.Fatal("empty placement cannot cover a 4x4 mesh")
	}
}

func TestCoverageCounterexampleNilWhenCovered(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	if cyc := CoverageCounterexample(topo); cyc != nil {
		t.Fatalf("unexpected counterexample %v", cyc)
	}
}

func TestPlacementDensityReasonable(t *testing.T) {
	// Bubble overhead should stay a small fraction of routers on square
	// meshes (21/64 ≈ 33%, 89/256 ≈ 35% — versus escape VC's extra buffer
	// at 100% of routers × 5 ports).
	for _, n := range []int{8, 16, 32, 64} {
		c := PlacementCount(n, n)
		frac := float64(c) / float64(n*n)
		if frac > 0.40 {
			t.Fatalf("%dx%d placement density %.2f too high", n, n, frac)
		}
	}
}

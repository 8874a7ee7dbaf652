package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

// Oracle tests for the all-pairs kernel (table.go). Every minimal column
// it compiles must equal one scalar reverse BFS per destination
// (topology.ReverseBFSDistances) with the candidate masks derived from
// that row by definition, and every median root it elects must be the
// argmin of per-candidate forward BFSDistances sums.

// kernelTopo builds a w×h mesh with random directed-channel,
// bidirectional-link and router faults.
func kernelTopo(w, h, directed, links, routers int, seed int64) *topology.Topology {
	t := topology.NewMesh(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < directed; i++ {
		t.DisableDirectedLink(geom.NodeID(rng.Intn(w*h)), geom.LinkDirs[rng.Intn(geom.NumLinkDirs)])
	}
	topology.RandomLinkFaults(t, rng, min(links, t.AliveLinkCount()))
	topology.RandomRouterFaults(t, rng, min(routers, w*h))
	return t
}

// kernelCases are the shapes the oracle tests sweep: directed faults,
// dead routers (dead destinations among them), shattered components,
// 1×N and N×1 meshes, and node counts that are not a multiple of 64 with
// ragged edge tiles, some past the parallel-compile threshold.
func kernelCases() []struct {
	name string
	topo *topology.Topology
} {
	return []struct {
		name string
		topo *topology.Topology
	}{
		{"healthy3x5", topology.NewMesh(3, 5)},
		{"directed8x8", kernelTopo(8, 8, 40, 0, 0, 1)},
		{"routers8x8", kernelTopo(8, 8, 0, 0, 12, 2)},
		{"shattered9x7", kernelTopo(9, 7, 10, 55, 3, 3)},
		{"column1x70", kernelTopo(1, 70, 6, 0, 1, 4)},
		{"row70x1", kernelTopo(70, 1, 6, 0, 0, 5)},
		{"mixed13x21", kernelTopo(13, 21, 30, 40, 10, 6)},
		{"mesh16x17", topology.NewMesh(16, 17)},
	}
}

// minimalOracle is the definition the minimal tables must meet: per
// destination a reverse BFS row, and per node the usable channels that
// step exactly one hop closer.
func minimalOracle(topo *topology.Topology) (dist [][]int16, mask [][]uint8) {
	n := topo.NumNodes()
	dist, mask = make([][]int16, n), make([][]uint8, n)
	for dst := range n {
		row := topo.ReverseBFSDistances(geom.NodeID(dst))
		dist[dst], mask[dst] = make([]int16, n), make([]uint8, n)
		for v, d := range row {
			dist[dst][v] = int16(d)
			if d <= 0 {
				continue
			}
			for i, dir := range geom.LinkDirs {
				if topo.HasLink(geom.NodeID(v), dir) && row[topo.Neighbor(geom.NodeID(v), dir)] == d-1 {
					mask[dst][v] |= 1 << uint(i)
				}
			}
		}
	}
	return dist, mask
}

// checkColumns compares tab's columns dsts with the oracle, distance rows
// only when wantDist (a masks-only table must keep none).
func checkColumns(t *testing.T, what string, tab *tables, dist [][]int16, mask [][]uint8, dsts []int, wantDist bool) {
	t.Helper()
	for _, dst := range dsts {
		c := tab.cols[dst]
		if !slices.Equal(c.mask, mask[dst]) {
			t.Fatalf("%s: dst %d masks\n got %v\nwant %v", what, dst, c.mask, mask[dst])
		}
		if wantDist != (c.dist != nil) {
			t.Fatalf("%s: dst %d keeps a distance row: %v, want %v", what, dst, c.dist != nil, wantDist)
		}
		if wantDist && !slices.Equal(c.dist, dist[dst]) {
			t.Fatalf("%s: dst %d distances\n got %v\nwant %v", what, dst, c.dist, dist[dst])
		}
	}
}

// medianOracle is RootMedian by definition: one forward BFS per member,
// the least sum of distances to the members (n² per unreachable one),
// lowest id on ties.
func medianOracle(topo *topology.Topology, comp []geom.NodeID) geom.NodeID {
	n := topo.NumNodes()
	best, bestSum := geom.InvalidNode, -1
	for _, cand := range comp {
		dist := topo.BFSDistances(cand)
		sum := 0
		for _, m := range comp {
			if dist[m] >= 0 {
				sum += dist[m]
			} else {
				sum += n * n
			}
		}
		if bestSum < 0 || sum < bestSum || sum == bestSum && cand < best {
			best, bestSum = cand, sum
		}
	}
	return best
}

// checkKernel holds one topology's cold compiles (both table kinds, every
// worker count in workers), a full fallback into a table compiled for
// other (same dimensions), one-column and batched column rebuilds, and
// the median election to the oracles.
func checkKernel(t *testing.T, topo, other *topology.Topology, workers []int) {
	t.Helper()
	g, n := topo.Flatten(), topo.NumNodes()
	dist, mask := minimalOracle(topo)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, w := range workers {
		checkColumns(t, fmt.Sprintf("owned, %d workers", w), compileMinimal(nil, g, true, w), dist, mask, all, true)
		checkColumns(t, fmt.Sprintf("masks-only, %d workers", w), compileMinimal(nil, g, false, w), dist, mask, all, false)
	}

	// Full fallback: the kernel overwrites another topology's table where
	// it stands.
	stale := compileMinimal(nil, other.Flatten(), true, 1)
	block := &stale.cols[0].mask[0]
	if got := compileMinimal(stale, g, true, workers[len(workers)-1]); got != stale || &got.cols[0].mask[0] != block {
		t.Fatal("full fallback did not compile into the table's own storage")
	}
	checkColumns(t, "full fallback", stale, dist, mask, all, true)

	// Column rebuilds: a lone column (the last, dead or alive), then a
	// batch crossing a pass boundary; the other columns keep other's
	// values.
	otherTab := compileMinimal(nil, other.Flatten(), true, 1)
	stale = otherTab.clone()
	r := newMinRepairer(n)
	r.g1 = g
	r.rebuildColumns(stale, []int32{int32(n - 1)})
	checkColumns(t, "one-column rebuild", stale, dist, mask, []int{n - 1}, true)
	var batch []int32
	var batchInts []int
	for dst := n - 2; dst >= 0 && len(batch) < batchRoots+6; dst -= 2 {
		batch = append(batch, int32(dst))
		batchInts = append(batchInts, dst)
	}
	r.rebuildColumns(stale, batch)
	checkColumns(t, "batched rebuild", stale, dist, mask, batchInts, true)
	for dst := n - 3; dst >= 0 && n-dst <= 2*(batchRoots+6); dst -= 2 {
		if d, e := columnDiff(otherTab, stale, dst); d || e != 0 {
			t.Fatalf("rebuilding other columns changed column %d", dst)
		}
	}

	e := newMedianElection(g)
	u := NewUpDownRooted(topo, RootMedian)
	for _, comp := range topo.ConnectedComponents() {
		want := medianOracle(topo, comp)
		if got := e.chooseRoot(comp); got != want {
			t.Fatalf("median of the %d-member component at %v: elected %v, want %v", len(comp), comp[0], got, want)
		}
		if u.Level(want) != 0 || u.Root(want) != want {
			t.Fatalf("the tree of the component at %v is not rooted at its median %v", comp[0], want)
		}
	}
}

// TestAllPairsKernelMatchesOracle runs checkKernel over kernelCases at
// 1–8 workers, each case's full fallback starting from a differently
// faulted mesh of the same size.
func TestAllPairsKernelMatchesOracle(t *testing.T) {
	for i, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			other := kernelTopo(c.topo.Width(), c.topo.Height(), 5, 3, 2, int64(100+i))
			checkKernel(t, c.topo, other, []int{1, 2, 3, 4, 5, 6, 7, 8})
		})
	}
}

// FuzzAllPairsKernel decodes a byte string into a faulted mesh of up to
// 12x12 (directed, link and router faults) and a worker count, and holds
// the kernel to the oracles on it.
func FuzzAllPairsKernel(f *testing.F) {
	f.Add([]byte{7, 7, 20, 10, 3, 0})
	f.Add([]byte{0, 11, 5, 0, 1, 3})
	f.Add([]byte{9, 4, 60, 40, 9, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		w, h := 1+int(data[0]%12), 1+int(data[1]%12)
		seed := int64(len(data))<<16 | int64(data[0])<<8 | int64(data[1])
		topo := kernelTopo(w, h, int(data[2]%64), int(data[3]%64), int(data[4])%(w*h/4+1), seed)
		other := kernelTopo(w, h, 3, 2, 1, seed+1)
		checkKernel(t, topo, other, []int{1 + int(data[5]%8)})
	})
}

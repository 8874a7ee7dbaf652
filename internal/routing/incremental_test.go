package routing

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

// randomDeltaStep applies one random fail/recover mutation to t and
// returns a short description. Mutations mirror what reconfig churn
// submits: link fails/recovers (undirected) and router fails/recovers.
func randomDeltaStep(t *topology.Topology, rng *rand.Rand) string {
	n := t.NumNodes()
	switch rng.Intn(4) {
	case 0:
		links := t.AliveUndirectedLinks()
		if len(links) > 0 {
			l := links[rng.Intn(len(links))]
			t.DisableLink(l.From, l.Dir)
			return "fail-link"
		}
	case 1:
		// Recover a random dead link (scan geometric channels).
		for try := 0; try < 32; try++ {
			id := geom.NodeID(rng.Intn(n))
			d := geom.LinkDirs[rng.Intn(geom.NumLinkDirs)]
			if t.Neighbor(id, d) != geom.InvalidNode && !t.LinkIntact(id, d) {
				t.EnableLink(id, d)
				return "recover-link"
			}
		}
	case 2:
		alive := t.AliveRouters()
		if len(alive) > 1 {
			t.DisableRouter(alive[rng.Intn(len(alive))])
			return "fail-router"
		}
	default:
		for try := 0; try < 32; try++ {
			id := geom.NodeID(rng.Intn(n))
			if !t.RouterAlive(id) {
				t.EnableRouter(id)
				return "recover-router"
			}
		}
	}
	return "noop"
}

// TestIncrementalVsFullProperty drives random fail/recover delta
// sequences over random irregular topologies and asserts the
// incremental recompile is bit-identical to a from-scratch compile at
// every step — for the minimal tables and the up*/down* state tables.
func TestIncrementalVsFullProperty(t *testing.T) {
	cases := 12
	steps := 10
	if testing.Short() {
		cases, steps = 5, 6
	}
	for c := 0; c < cases; c++ {
		seed := int64(1000 + c)
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(5), 4+rng.Intn(5)
		kind := topology.LinkFaults
		if c%2 == 1 {
			kind = topology.RouterFaults
		}
		topo := topology.RandomIrregular(w, h, kind, rng.Intn(w*h/2), seed)
		min := NewMinimal(topo)
		ud := NewUpDownRooted(topo, RootLowestID).Compile()
		for s := 0; s < steps; s++ {
			op := randomDeltaStep(topo, rng)
			incMin, mst := min.Recompile(topo)
			fullMin := NewMinimal(topo)
			if !MinimalTablesEqual(incMin, fullMin) {
				t.Fatalf("case %d step %d (%s): incremental minimal diverged from full compile (stats %+v)",
					c, s, op, mst)
			}
			incUD, ust := ud.Recompile(topo)
			fullUD := NewUpDownRooted(topo, RootLowestID).Compile()
			if !UpDownTablesEqual(incUD, fullUD) {
				t.Fatalf("case %d step %d (%s): incremental updown diverged from full compile (stats %+v)",
					c, s, op, ust)
			}
			min, ud = incMin, incUD
		}
	}
}

// TestIncrementalColumnSharing checks the COW invariant that makes
// incremental compiles cheap: columns for destinations in a component
// the delta cannot reach are shared pointer-identically, and an empty
// delta shares every column.
func TestIncrementalColumnSharing(t *testing.T) {
	// Split an 8x4 mesh into two 4x4 components by cutting the column-3
	// to column-4 links, then churn a link strictly inside the left
	// component. Right-component destination columns must be shared.
	topo := topology.NewMesh(8, 4)
	for y := 0; y < 4; y++ {
		topo.DisableLink(geom.NodeID(y*8+3), geom.East)
	}
	min := NewMinimal(topo)
	ud := NewUpDownRooted(topo, RootLowestID).Compile()

	topo.DisableLink(0, geom.East) // node 0 → node 1, deep inside the left half
	incMin, st := min.Recompile(topo)
	if st.Full || st.ColsShared == 0 {
		t.Fatalf("expected a sharing incremental compile, got %+v", st)
	}
	incUD, ust := ud.Recompile(topo)
	full := NewMinimal(topo)
	if !MinimalTablesEqual(incMin, full) {
		t.Fatal("incremental minimal diverged")
	}
	for y := 0; y < 4; y++ {
		for x := 4; x < 8; x++ {
			dst := geom.NodeID(y*8 + x)
			if !incMin.SharesColumn(min, dst) {
				t.Fatalf("minimal column for right-component dst %d not shared", dst)
			}
			if !ust.Full && !incUD.SharesColumn(ud, dst) {
				t.Fatalf("updown column for right-component dst %d not shared", dst)
			}
		}
	}

	// Empty delta: every column shared, no work counted.
	same, st2 := incMin.Recompile(topo)
	if st2.ColsShared != topo.NumNodes() || st2.EntriesRewritten != 0 {
		t.Fatalf("empty delta should share everything: %+v", st2)
	}
	for dst := 0; dst < topo.NumNodes(); dst++ {
		if !same.SharesColumn(incMin, geom.NodeID(dst)) {
			t.Fatalf("empty-delta column %d not shared", dst)
		}
	}
}

// TestIncrementalRepairIsLocal pins the perf contract behind the churn
// speedup: one link flap on a healthy 32x32 mesh must repair columns by
// rewriting a near-constant number of entries, not rebuild them — the
// deterministic work counters are the flake-free proxy for the ≥10x
// wall-clock claim (`go run ./bench` shows the measured side as
// routing.compile_cold_ms vs routing.recompile_us_per_event).
func TestIncrementalRepairIsLocal(t *testing.T) {
	topo := topology.NewMesh(32, 32)
	n := int64(topo.NumNodes())
	min := NewMinimal(topo)
	topo.DisableLink(geom.NodeID(15*32+15), geom.East)
	inc, st := min.Recompile(topo)
	if st.Full {
		t.Fatalf("single-link delta took the full-compile fallback: %+v", st)
	}
	if st.ColsRebuilt != 0 {
		t.Fatalf("single-link delta rebuilt %d columns from scratch", st.ColsRebuilt)
	}
	// A full compile writes 2·n² entries; the repair must be at least
	// 100x smaller (measured: ~2 mask entries per perturbed column).
	if st.EntriesRewritten*100 > 2*n*n {
		t.Fatalf("repair rewrote %d of %d entries — not local", st.EntriesRewritten, 2*n*n)
	}
	if !MinimalTablesEqual(inc, NewMinimal(topo)) {
		t.Fatal("local repair diverged from full compile")
	}
	// Flap back: the delta inverts and the result must equal the
	// original table bit-for-bit.
	topo.EnableLink(geom.NodeID(15*32+15), geom.East)
	back, _ := inc.Recompile(topo)
	if !MinimalTablesEqual(back, min) {
		t.Fatal("flap-back did not restore the original tables")
	}
}

// TestParallelCompileDeterminism: the cold compile must be byte-identical
// at every worker count (the CI seam-sync tier runs this under -race).
func TestParallelCompileDeterminism(t *testing.T) {
	topo := topology.RandomIrregular(20, 20, topology.LinkFaults, 60, 9)
	g := topo.Flatten()
	seq := compileMinimal(g, 1)
	ud := NewUpDownRooted(topo, RootLowestID)
	seqUD := compileUpDown(g, ud.level, ud.upMask, 1)
	for _, workers := range []int{2, 3, 8} {
		par := compileMinimal(g, workers)
		a := &Minimal{g: g, tab: seq}
		b := &Minimal{g: g, tab: par}
		if !MinimalTablesEqual(a, b) {
			t.Fatalf("parallel minimal compile (workers=%d) not byte-identical", workers)
		}
		parUD := compileUpDown(g, ud.level, ud.upMask, workers)
		ua := &UpDownTable{UpDown: ud, g: g, tab: seqUD}
		ub := &UpDownTable{UpDown: ud, g: g, tab: parUD}
		if !UpDownTablesEqual(ua, ub) {
			t.Fatalf("parallel updown compile (workers=%d) not byte-identical", workers)
		}
	}
}

// FuzzIncrementalCompile decodes a byte string into a topology and a
// mutation sequence and asserts incremental == full at every step.
// Corpus seeds live in testdata/fuzz/FuzzIncrementalCompile.
func FuzzIncrementalCompile(f *testing.F) {
	f.Add([]byte{3, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 2, 0, 9, 9, 9, 1, 200, 3})
	f.Add([]byte{1, 1, 12, 250, 0, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		w := 3 + int(data[0]%6)
		h := 3 + int(data[1]%6)
		faults := int(data[2]) % (w * h / 2)
		seed := int64(len(data))*1315423911 + int64(data[0])<<8 + int64(data[1])
		topo := topology.RandomIrregular(w, h, topology.LinkFaults, faults, seed)
		min := NewMinimal(topo)
		ud := NewUpDownRooted(topo, RootLowestID).Compile()
		ops := data[3:]
		if len(ops) > 12 {
			ops = ops[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		for _, b := range ops {
			// Mix the fuzz byte into the mutation choice so the corpus
			// steers the walk while staying in-range.
			rng.Seed(seed ^ int64(b)<<17)
			randomDeltaStep(topo, rng)
			incMin, _ := min.Recompile(topo)
			fullMin := NewMinimal(topo)
			if !MinimalTablesEqual(incMin, fullMin) {
				t.Fatal("incremental minimal diverged from full compile")
			}
			incUD, _ := ud.Recompile(topo)
			fullUD := NewUpDownRooted(topo, RootLowestID).Compile()
			if !UpDownTablesEqual(incUD, fullUD) {
				t.Fatal("incremental updown diverged from full compile")
			}
			min, ud = incMin, incUD
		}
	})
}

package routing

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// checkMinimalRecompile holds one in-place Minimal recompile to its
// contract: m now equals a cold compile of topo, and st accounts exactly
// for what changed relative to before (a snapshot taken just before the
// Recompile) — with no rebuilt column, EntriesRewritten is the number of
// entries that differ and ColsRepaired-DistShared the number of columns
// whose distance row does.
func checkMinimalRecompile(t *testing.T, what string, before, m *Minimal, st RecompileStats, topo *topology.Topology) {
	t.Helper()
	if !MinimalTablesEqual(m, NewMinimal(topo)) {
		t.Fatalf("%s: incremental minimal diverged from full compile (stats %+v)", what, st)
	}
	n := m.tab.n
	if st.ColsShared+st.ColsRepaired+st.ColsRebuilt != n {
		t.Fatalf("%s: column fates %+v do not sum to %d", what, st, n)
	}
	if st.Full || before.tab.n != n {
		return
	}
	distCols, entries := 0, int64(0)
	for dst := 0; dst < n; dst++ {
		d, e := columnDiff(before.tab, m.tab, dst)
		if d {
			distCols++
		}
		entries += e
	}
	if st.EntriesRewritten < entries {
		t.Fatalf("%s: %d entries changed but %d charged (stats %+v)", what, entries, st.EntriesRewritten, st)
	}
	if st.ColsRebuilt == 0 && (st.EntriesRewritten != entries || st.ColsRepaired-st.DistShared != distCols) {
		t.Fatalf("%s: %d entries in %d distance rows changed, stats %+v", what, entries, distCols, st)
	}
}

// TestIncrementalVsFullProperty drives random fail/recover delta
// sequences over random irregular topologies and asserts the receiver of
// every in-place recompile is bit-identical to a from-scratch compile
// after every step.
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
		for s := 0; s < steps; s++ {
			op := randomDeltaStep(topo, rng)
			before := min.snapshot()
			mst := min.Recompile(topo)
			checkMinimalRecompile(t, fmt.Sprintf("case %d step %d (%s)", c, s, op), before, min, mst, topo)
		}
	}
}

// TestIncrementalColumnSharing checks the invariant that makes
// incremental compiles cheap: columns for destinations in a component
// the delta cannot reach are left byte-for-byte as they were and counted
// in ColsShared, and an empty delta touches nothing.
func TestIncrementalColumnSharing(t *testing.T) {
	// Split an 8x4 mesh into two 4x4 components by cutting the column-3
	// to column-4 links, then churn a link strictly inside the left
	// component. Right-component destination columns must be untouched.
	topo := topology.NewMesh(8, 4)
	for y := 0; y < 4; y++ {
		topo.DisableLink(geom.NodeID(y*8+3), geom.East)
	}
	min := NewMinimal(topo)
	minBefore := min.tab.clone()

	topo.DisableLink(0, geom.East) // node 0 → node 1, deep inside the left half
	st := min.Recompile(topo)
	if st.Full || st.ColsShared < 16 {
		t.Fatalf("expected the 16 right-component columns kept, got %+v", st)
	}
	if !MinimalTablesEqual(min, NewMinimal(topo)) {
		t.Fatal("incremental minimal diverged")
	}
	for y := 0; y < 4; y++ {
		for x := 4; x < 8; x++ {
			dst := y*8 + x
			if d, e := columnDiff(minBefore, min.tab, dst); d || e != 0 {
				t.Fatalf("minimal column for right-component dst %d changed", dst)
			}
		}
	}

	// Empty delta: every column kept, no work counted.
	if st2 := min.Recompile(topo); st2.ColsShared != topo.NumNodes() || st2.EntriesRewritten != 0 {
		t.Fatalf("empty delta should keep everything: %+v", st2)
	}
	if !MinimalTablesEqual(min, NewMinimal(topo)) {
		t.Fatal("empty delta changed the table")
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
	before := min.snapshot()
	topo.DisableLink(geom.NodeID(15*32+15), geom.East)
	st := min.Recompile(topo)
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
	checkMinimalRecompile(t, "fail", before, min, st, topo)
	// Flap back: the delta inverts and the result must equal a cold
	// compile of the original mesh bit-for-bit.
	topo.EnableLink(geom.NodeID(15*32+15), geom.East)
	min.Recompile(topo)
	if !MinimalTablesEqual(min, NewMinimal(topology.NewMesh(32, 32))) {
		t.Fatal("flap-back did not restore the original tables")
	}
}

// TestIncrementalFallbacksCompileInPlace drives the paths that recompute
// whole columns. A ring cut makes the exact-increase set of the columns
// near the cut exceed n/8, so the repair declines and the kernel rebuilds
// them into the same storage instead. The same tables then move to a mesh of
// another size (a full compile into new storage, and a repairer sized
// anew) and take a mass failure past maxIncrementalDelta (a full compile
// into the same storage), after which each single-link step must diff
// against the fallback's snapshot.
func TestIncrementalFallbacksCompileInPlace(t *testing.T) {
	// A 16x2 mesh with the inner rungs cut is a 32-node ring (n/8 = 4).
	topo := topology.NewMesh(16, 2)
	for x := 1; x < 15; x++ {
		topo.DisableLink(geom.NodeID(x), geom.North)
	}
	min := NewMinimal(topo)
	before := min.snapshot()
	topo.DisableLink(7, geom.East)
	st := min.Recompile(topo)
	if st.Full || st.ColsRebuilt == 0 {
		t.Fatalf("ring cut should decline some repairs into column rebuilds: %+v", st)
	}
	checkMinimalRecompile(t, "ring cut", before, min, st, topo)

	mesh := topology.NewMesh(6, 6)
	if st := min.Recompile(mesh); !st.Full {
		t.Fatalf("a 16x2 table moved to a 6x6 mesh should compile fully: %+v", st)
	}
	// The last links touch the highest node ids, past the old size.
	links := mesh.AliveUndirectedLinks()
	links = links[len(links)-20:]
	for _, l := range links { // 40 channels > n = 36
		mesh.DisableLink(l.From, l.Dir)
	}
	if st := min.Recompile(mesh); !st.Full {
		t.Fatalf("a 40-channel delta on 36 nodes should fall back to a full compile: %+v", st)
	}
	for _, l := range links[len(links)-3:] {
		mesh.EnableLink(l.From, l.Dir)
		before := min.snapshot()
		st := min.Recompile(mesh)
		if st.Full {
			t.Fatalf("single-link step after the fallback went full: %+v", st)
		}
		checkMinimalRecompile(t, "after full fallback", before, min, st, mesh)
	}
}

// TestRepairStampWrap: the repairer's stamp persists across Recompiles,
// so a long churn run eventually wraps it. A stamped set is valid only
// while every mark is older than the current stamp; after a flap has
// left marks up to the number of repaired columns, a wrap must restart
// the stamp with every array cleared, and the flap back across the wrap
// must still match a cold compile.
func TestRepairStampWrap(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	min := NewMinimal(topo)
	topo.DisableLink(27, geom.East)
	min.Recompile(topo)
	min.presetRepairStamp(math.MaxInt32)
	r := min.rep
	r.nextColumn()
	for _, a := range [][]int32{r.candS, r.affS, r.setS, r.chgS, r.dirtS, r.oldS} {
		for x, s := range a {
			if s >= r.stamp {
				t.Fatalf("after the wrap node %d holds mark %d, not older than stamp %d", x, s, r.stamp)
			}
		}
	}
	topo.EnableLink(27, geom.East)
	before := min.snapshot()
	checkMinimalRecompile(t, "flap back across the wrap", before, min, min.Recompile(topo), topo)
}

// TestRecompileRefusesSharedTable: a MinimalFor table is read by every
// simulation that asked for its fingerprint, so recompiling it in place
// must panic and point at the owned constructor, leaving its masks as
// compiled and still without distances.
func TestRecompileRefusesSharedTable(t *testing.T) {
	topo := topology.RandomIrregular(5, 5, topology.LinkFaults, 3, 77)
	m := MinimalFor(topo)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "NewMinimal") {
			t.Fatalf("Recompile on a MinimalFor table: recovered %q, want a panic naming NewMinimal", msg)
		}
		if !m.tab.masksEqual(NewMinimal(topo).tab) || m.tab.keepsDist() {
			t.Fatal("the refused Recompile changed the shared table")
		}
	}()
	flapped := topo.Clone()
	flapped.DisableLink(12, geom.East)
	m.Recompile(flapped)
}

// TestRecompileAllocatesNoTable pins the point of in-place repair: after
// one warm-up flap (which allocates the repairer), a fail+recover of one
// link on a 32x32 mesh allocates two snapshots and two deltas, not a
// table (a 32x32 minimal table is ~3 MB).
func TestRecompileAllocatesNoTable(t *testing.T) {
	topo := topology.NewMesh(32, 32)
	at := geom.NodeID(15*32 + 15)
	min := NewMinimal(topo)
	flap := func() {
		topo.DisableLink(at, geom.East)
		min.Recompile(topo)
		topo.EnableLink(at, geom.East)
		min.Recompile(topo)
	}
	flap()
	got := allocBytes(flap)
	if got > 256<<10 {
		t.Fatalf("fail+recover allocated %d B, want <= %d", got, 256<<10)
	}
	t.Logf("fail+recover allocated %d B", got)
	if !MinimalTablesEqual(min, NewMinimal(topo)) {
		t.Fatal("flapped table diverged from a cold compile")
	}
}

// BenchmarkRecompileFlap32x32 times one fail+recover of a central link
// on a 32x32 mesh through the in-place recompiler (run with -benchmem).
func BenchmarkRecompileFlap32x32(b *testing.B) {
	topo := topology.NewMesh(32, 32)
	at := geom.NodeID(15*32 + 15)
	min := NewMinimal(topo)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.DisableLink(at, geom.East)
		min.Recompile(topo)
		topo.EnableLink(at, geom.East)
		min.Recompile(topo)
	}
}

// TestParallelCompileDeterminism: the cold compile, distance-keeping or
// masks-only, must be byte-identical at every worker count (CI runs it
// under -race).
func TestParallelCompileDeterminism(t *testing.T) {
	topo := topology.RandomIrregular(20, 20, topology.LinkFaults, 60, 9)
	g := topo.Flatten()
	seq := compileMinimal(nil, g, true, 1)
	seqMasks := compileMinimal(nil, g, false, 1)
	for _, workers := range []int{2, 3, 8} {
		par := compileMinimal(nil, g, true, workers)
		a := &Minimal{g: g, tab: seq}
		b := &Minimal{g: g, tab: par}
		if !MinimalTablesEqual(a, b) {
			t.Fatalf("parallel minimal compile (workers=%d) not byte-identical", workers)
		}
		if !compileMinimal(nil, g, false, workers).equal(seqMasks) {
			t.Fatalf("parallel masks-only compile (workers=%d) not byte-identical", workers)
		}
	}
}

// FuzzIncrementalCompile decodes a byte string into a topology and a
// mutation sequence and asserts that the receiver of every in-place
// recompile equals a cold compile after every step.
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
		ops := data[3:]
		if len(ops) > 12 {
			ops = ops[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		for _, b := range ops {
			// Mix the fuzz byte into the mutation choice so the corpus
			// steers the walk while staying in-range.
			rng.Seed(seed ^ int64(b)<<17)
			op := randomDeltaStep(topo, rng)
			before := min.snapshot()
			checkMinimalRecompile(t, op, before, min, min.Recompile(topo), topo)
		}
	})
}

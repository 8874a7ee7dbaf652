package reconfig

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// sameTables reports whether a and b answer every (src, dst) query of an
// n-node mesh identically: distance and next-hop candidate mask.
func sameTables(a, b *routing.Minimal, n int) bool {
	for src := geom.NodeID(0); int(src) < n; src++ {
		for dst := geom.NodeID(0); int(dst) < n; dst++ {
			if a.Distance(src, dst) != b.Distance(src, dst) || a.NextHopMask(src, dst) != b.NextHopMask(src, dst) {
				return false
			}
		}
	}
	return true
}

// TestManagerTableStats: the manager's counters track misses and
// incremental compiles, and — the in-place contract — a flap back is a
// charged epoch like any other, repaired into the manager's one table,
// which then equals a cold compile.
func TestManagerTableStats(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	m := New(s)
	st := m.TableStats()
	if st.Misses != 1 || st.Full != 1 || st.Hits != 0 {
		t.Fatalf("construction should cost exactly one full-compile miss: %+v", st)
	}
	table := m.minimal
	m.FailLink(0, geom.East)
	st = m.TableStats()
	if st.Misses != 2 || st.Incremental != 1 {
		t.Fatalf("fail-link should be one incremental miss: %+v", st)
	}
	// On a mesh this small a central link cut perturbs every column, so
	// keeping columns isn't guaranteed — but the repair path must dominate
	// and the rewrite work must stay far below a full-table recompile.
	full := m.minimal.TableEntries()
	if st.ColsRepaired == 0 {
		t.Fatalf("incremental compile should repair columns: %+v", st)
	}
	if inc := st.EntriesRewritten - full; inc <= 0 || inc >= full/2 {
		t.Fatalf("incremental rewrite work %d not local vs full table %d: %+v", inc, full, st)
	}
	if out, _ := m.Submit(Event{Kind: EvRecoverLink, Node: 0, Dir: geom.East}); out != OutApplied {
		t.Fatalf("recover-link outcome %v", out)
	}
	after := m.TableStats()
	if after.Hits != 0 || after.Misses != 3 || after.Incremental != 2 ||
		after.EntriesRewritten <= st.EntriesRewritten || after.ColsRepaired <= st.ColsRepaired {
		t.Fatalf("flap back should be a charged incremental epoch: before %+v after %+v", st, after)
	}
	if m.minimal != table {
		t.Fatal("the manager must keep repairing its one table, not install another")
	}
	if !sameTables(m.minimal, routing.NewMinimal(topo), topo.NumNodes()) {
		t.Fatal("table after the flap back differs from a cold compile")
	}
}

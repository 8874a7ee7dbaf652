package reconfig

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func fakeFingerprint(i int) topology.Fingerprint {
	var fp topology.Fingerprint
	fp[0], fp[1] = byte(i), byte(i>>8)
	return fp
}

// TestTableCacheLRU: capacity, eviction order, and recency updates from
// both get and put.
func TestTableCacheLRU(t *testing.T) {
	c := newTableCache()
	for i := 0; i < tableCacheCap; i++ {
		if c.put(fakeFingerprint(i)) {
			t.Fatalf("unexpected eviction filling to cap (i=%d)", i)
		}
	}
	if c.len() != tableCacheCap {
		t.Fatalf("len=%d want %d", c.len(), tableCacheCap)
	}
	// Touch entry 0 via get: it becomes most-recently-used, so the next
	// insert must evict entry 1 instead.
	if !c.get(fakeFingerprint(0)) {
		t.Fatal("entry 0 missing")
	}
	if !c.put(fakeFingerprint(1000)) {
		t.Fatal("insert at cap should evict")
	}
	if c.get(fakeFingerprint(1)) {
		t.Fatal("entry 1 should have been evicted (LRU after 0 was touched)")
	}
	if !c.get(fakeFingerprint(0)) {
		t.Fatal("entry 0 should have survived")
	}
	// put of an existing key refreshes recency without eviction.
	if c.put(fakeFingerprint(2)) {
		t.Fatal("refreshing put must not evict")
	}
	if !c.put(fakeFingerprint(1001)) {
		t.Fatal("insert at cap should evict")
	}
	if !c.get(fakeFingerprint(2)) {
		t.Fatal("refreshed entry 2 should have survived the next eviction")
	}
}

// TestTableCacheChurnSweep drives many more distinct fingerprints than
// the cap through the cache and checks the invariant len <= cap with
// every recent entry resident.
func TestTableCacheChurnSweep(t *testing.T) {
	c := newTableCache()
	for i := 0; i < 5*tableCacheCap; i++ {
		c.put(fakeFingerprint(i))
		if c.len() > tableCacheCap {
			t.Fatalf("cache exceeded cap: %d", c.len())
		}
	}
	for i := 4*tableCacheCap + 1; i < 5*tableCacheCap; i++ {
		if !c.get(fakeFingerprint(i)) {
			t.Fatalf("recent entry %d evicted early", i)
		}
	}
}

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

// TestManagerTableStats: the manager's counters track hits, misses and
// incremental compiles, and — the in-place contract — a flap back to a
// cached fingerprint counts as a hit, charges no table work, and leaves
// the manager's one table equal to a cold compile.
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
	if after.Hits != 1 || after.Misses != st.Misses || after.EntriesRewritten != st.EntriesRewritten ||
		after.Incremental != st.Incremental || after.ColsRepaired != st.ColsRepaired {
		t.Fatalf("flap back should be a hit charging no table work: before %+v after %+v", st, after)
	}
	if m.minimal != table {
		t.Fatal("the manager must keep repairing its one table, not install another")
	}
	if !sameTables(m.minimal, routing.NewMinimal(topo), topo.NumNodes()) {
		t.Fatal("table after the flap back differs from a cold compile")
	}
}

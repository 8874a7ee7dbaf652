package reconfig

import "repro/internal/topology"

// tableCacheCap bounds the per-Manager fingerprint recency list, which
// models a cache of that many retained compiled tables. A hit needs the
// *whole* topology to return to an earlier state (one link flapping
// down and back up with nothing else changing in between), which
// overlapping churn rarely allows — measured: 0 hits on the benchmark's
// churn_32x32 (bench/baseline.json, reconfig.table_hit_ratio) and 14 of
// 108 lookups on `sbsweep -fig churn -scale quick`.
const tableCacheCap = 32

// tableCache is a tiny fingerprint LRU, private to one Manager. It keeps
// fingerprints, not tables: the manager holds one table and repairs it
// in place on every epoch, and the LRU only decides which epochs count
// as hits — the churn figure charges a hit zero table-install work, as
// if a retained table had been swapped in. Lookups, inserts, and
// recency updates are all O(1) — they sit on the per-event path of
// every churn run: an index map plus an intrusive doubly-linked recency
// list.
//
// Why not routing.MinimalFor? That process-wide cache hands out
// immutable tables (see routing/cache.go), while the manager's topology
// changes on every event; keying globally by fingerprint would also let
// one churn run grow process memory without bound.
//
// Determinism: keys are content fingerprints and the repaired table is
// bit-identical to a cold compile, so the simulated trajectory is
// byte-identical with or without hits.
type tableCache struct {
	entries    map[topology.Fingerprint]*tableCacheNode
	head, tail *tableCacheNode // head = least recently used, tail = most
}

type tableCacheNode struct {
	fp         topology.Fingerprint
	prev, next *tableCacheNode
}

func newTableCache() *tableCache {
	return &tableCache{entries: make(map[topology.Fingerprint]*tableCacheNode, tableCacheCap)}
}

// get reports whether fp is resident, making it most recently used.
func (c *tableCache) get(fp topology.Fingerprint) bool {
	nd, ok := c.entries[fp]
	if ok {
		c.moveToTail(nd)
	}
	return ok
}

// put inserts or refreshes fp and reports whether an entry was evicted.
func (c *tableCache) put(fp topology.Fingerprint) (evicted bool) {
	if nd, ok := c.entries[fp]; ok {
		c.moveToTail(nd)
		return false
	}
	if len(c.entries) >= tableCacheCap {
		old := c.head
		c.unlink(old)
		delete(c.entries, old.fp)
		evicted = true
	}
	nd := &tableCacheNode{fp: fp}
	c.entries[fp] = nd
	c.linkTail(nd)
	return evicted
}

func (c *tableCache) len() int { return len(c.entries) }

func (c *tableCache) unlink(nd *tableCacheNode) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		c.tail = nd.prev
	}
	nd.prev, nd.next = nil, nil
}

func (c *tableCache) linkTail(nd *tableCacheNode) {
	nd.prev = c.tail
	if c.tail != nil {
		c.tail.next = nd
	} else {
		c.head = nd
	}
	c.tail = nd
}

func (c *tableCache) moveToTail(nd *tableCacheNode) {
	if c.tail == nd {
		return
	}
	c.unlink(nd)
	c.linkTail(nd)
}

// TableStats counts the manager's compiled-table cache and compiler
// activity since construction. Surfaced per contender by the churn
// experiment (sbsweep -fig churn).
type TableStats struct {
	// Hits/Misses/Evictions describe the fingerprint LRU. The initial
	// compile at Manager construction counts as the first miss.
	Hits, Misses, Evictions int64
	// Incremental and Full count how cache misses were compiled.
	Incremental, Full int64
	// Column fates summed over the misses' incremental compiles
	// (routing.RecompileStats).
	ColsShared, ColsRepaired, ColsRebuilt int64
	// EntriesRewritten is the deterministic table-install work metric:
	// entries whose value changed across missed epochs (full compiles
	// charge the whole table; a hit charges nothing).
	EntriesRewritten int64
	// CompileNs is total wall time spent bringing the table to each
	// epoch — misses, and the in-place repair a hit still runs;
	// LastCompileNs is the most recent epoch's. Wall-clock fields are
	// observability only — nothing simulated depends on them.
	CompileNs, LastCompileNs int64
}

// TableStats returns a snapshot of the manager's table-compilation
// counters.
func (m *Manager) TableStats() TableStats { return m.tabStats }

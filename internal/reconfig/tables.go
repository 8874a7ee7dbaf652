package reconfig

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// tableCacheCap bounds the per-Manager compiled-table cache, keeping
// worst-case memory at ~cap × table size. A hit needs the *whole*
// topology to return to an earlier state (one link flapping down and
// back up with nothing else changing in between), which overlapping
// churn rarely allows — measured: 0 hits on the benchmark's churn_32x32
// (bench/baseline.json, reconfig.table_hit_ratio) and 14 of 108 lookups
// on `sbsweep -fig churn -scale quick`.
const tableCacheCap = 32

// tableCache is a tiny fingerprint-keyed LRU of compiled minimal
// routing tables, private to one Manager. Lookups, inserts, and
// recency updates are all O(1) — they sit on the per-event path of
// every churn run: an index map plus an intrusive doubly-linked recency
// list.
//
// Why not routing.MinimalFor? That process-wide cache is documented as
// off-limits for callers that mutate their topology in place (see
// routing/cache.go): the manager's topology changes on every event, so
// sharing compiled snapshots across simulations keyed by a pointer
// would be wrong, and keying globally by fingerprint would let one
// churn run grow process memory without bound. A per-Manager LRU keeps
// the win (recovering a flapped element reuses the previous compile)
// with a hard cap, and dies with the manager.
//
// Determinism: keys are content fingerprints, so a hit returns exactly
// the table a compile would produce for that connectivity — the
// simulated trajectory is byte-identical with or without hits. With the
// incremental recompiler the returned object is moreover the *identical*
// object built when that fingerprint was last current, so a flap back to
// a cached fingerprint keeps sharing column pages with its neighbors in
// the flap sequence.
type tableCache struct {
	entries    map[topology.Fingerprint]*tableCacheNode
	head, tail *tableCacheNode // head = least recently used, tail = most
}

type tableCacheNode struct {
	fp         topology.Fingerprint
	min        *routing.Minimal
	prev, next *tableCacheNode
}

func newTableCache() *tableCache {
	return &tableCache{entries: make(map[topology.Fingerprint]*tableCacheNode, tableCacheCap)}
}

func (c *tableCache) get(fp topology.Fingerprint) (*routing.Minimal, bool) {
	nd, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	c.moveToTail(nd)
	return nd.min, true
}

// put inserts or refreshes fp and reports whether an entry was evicted.
func (c *tableCache) put(fp topology.Fingerprint, min *routing.Minimal) (evicted bool) {
	if nd, ok := c.entries[fp]; ok {
		nd.min = min
		c.moveToTail(nd)
		return false
	}
	if len(c.entries) >= tableCacheCap {
		old := c.head
		c.unlink(old)
		delete(c.entries, old.fp)
		evicted = true
	}
	nd := &tableCacheNode{fp: fp, min: min}
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
	// Column fates summed over incremental compiles (routing.RecompileStats).
	ColsShared, ColsRepaired, ColsRebuilt int64
	// EntriesRewritten is the deterministic table-install work metric:
	// entries whose value changed across epochs (full compiles charge
	// the whole table).
	EntriesRewritten int64
	// CompileNs is total wall time spent compiling (misses only);
	// LastCompileNs is the most recent miss's compile time. Wall-clock
	// fields are observability only — nothing simulated depends on them.
	CompileNs, LastCompileNs int64
}

// TableStats returns a snapshot of the manager's table-compilation
// counters.
func (m *Manager) TableStats() TableStats { return m.tabStats }

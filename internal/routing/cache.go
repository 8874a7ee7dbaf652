package routing

import (
	"fmt"
	"sync"

	"repro/internal/topology"
)

// Process-wide routing-artifact cache. The paper's evaluation (Figs.
// 8–13) simulates thousands of (seed, injection rate, scheme) points
// over the *same* sampled irregular topologies; building the minimal
// tables and the baselines' spanning trees once per (topology content,
// algorithm) pair and sharing the immutable result removes the
// per-point BFS family entirely. Entries
// are content-addressed by topology.Fingerprint — clones, resampled
// identical topologies, and concurrent sweep workers all converge on
// one compile — and duplicate concurrent requests are deduplicated
// singleflight-style: the first caller compiles, the rest wait on the
// entry's ready channel.
//
// Everything here is process-wide and immutable (Recompile panics on a
// MinimalFor table), so only immutable-topology callers may use it, and a
// MinimalFor table keeps candidate masks only (table.go). Code that
// mutates its topology (reconfig, the failure-timeline experiment) owns
// NewMinimal/NewUpDownRooted instances, which keep the distances
// Recompile repairs from.

// tableKey identifies one compiled artifact.
type tableKey struct {
	fp  topology.Fingerprint
	alg string
}

// tableEntry is one cache slot; val/bytes are written exactly once,
// before ready is closed.
type tableEntry struct {
	ready chan struct{}
	val   any
	bytes int64
}

var tableCache = struct {
	sync.Mutex
	m        map[tableKey]*tableEntry
	compiles int64
	hits     int64
	bytes    int64
}{m: make(map[tableKey]*tableEntry)}

// TableCacheStats is a snapshot of the compiled-table cache counters.
type TableCacheStats struct {
	// Compiles counts tables built (cache misses); Hits counts requests
	// served from an existing or in-flight entry.
	Compiles, Hits int64
	// Entries and Bytes size the held artifacts.
	Entries int
	Bytes   int64
}

func (s TableCacheStats) String() string {
	total := s.Compiles + s.Hits
	rate := 0.0
	if total > 0 {
		rate = float64(s.Hits) / float64(total) * 100
	}
	return fmt.Sprintf("routing tables: %d compiles, %d hits (%.1f%% hit rate), %d entries, %.1f KiB held",
		s.Compiles, s.Hits, rate, s.Entries, float64(s.Bytes)/1024)
}

// CacheStats returns the current cache counters.
func CacheStats() TableCacheStats {
	tableCache.Lock()
	defer tableCache.Unlock()
	return TableCacheStats{
		Compiles: tableCache.compiles,
		Hits:     tableCache.hits,
		Entries:  len(tableCache.m),
		Bytes:    tableCache.bytes,
	}
}

// ResetTableCache drops every cached table and zeroes the counters.
// Outstanding references stay valid (entries are immutable); this only
// releases the cache's own hold, e.g. between unrelated sweeps or in
// tests that assert compile counts.
func ResetTableCache() {
	tableCache.Lock()
	defer tableCache.Unlock()
	tableCache.m = make(map[tableKey]*tableEntry)
	tableCache.compiles, tableCache.hits, tableCache.bytes = 0, 0, 0
}

// cachedCompile returns the artifact for key, compiling it at most once
// per cache lifetime no matter how many goroutines ask concurrently.
// bytes reports the artifact's footprint for accounting.
func cachedCompile(key tableKey, compile func() (val any, bytes int64)) any {
	tableCache.Lock()
	if e, ok := tableCache.m[key]; ok {
		tableCache.hits++
		tableCache.Unlock()
		<-e.ready
		return e.val
	}
	e := &tableEntry{ready: make(chan struct{})}
	tableCache.m[key] = e
	tableCache.compiles++
	tableCache.Unlock()

	done := false
	defer func() {
		if !done {
			// Compile panicked: withdraw the entry and release waiters
			// (they observe val == nil and re-panic via the type assert
			// in their caller).
			tableCache.Lock()
			delete(tableCache.m, key)
			tableCache.Unlock()
			close(e.ready)
		}
	}()
	val, bytes := compile()
	e.val, e.bytes = val, bytes
	done = true
	tableCache.Lock()
	tableCache.bytes += bytes
	tableCache.Unlock()
	close(e.ready)
	return val
}

// MinimalFor returns the compiled minimal router for t's current
// content, sharing one instance across all callers with fingerprint-
// equal topologies. t must not be mutated afterwards.
func MinimalFor(t *topology.Topology) *Minimal {
	key := tableKey{fp: t.Fingerprint(), alg: "minimal"}
	return cachedCompile(key, func() (any, int64) {
		m := newMinimal(t, true)
		return m, m.tableBytes()
	}).(*Minimal)
}

// UpDownFor returns the up*/down* spanning trees for t's current content
// under the given root policy, shared like MinimalFor (RootMedian
// searches from every root candidate, so the tree is worth sharing too).
// t must not be mutated afterwards.
func UpDownFor(t *topology.Topology, policy RootPolicy) *UpDown {
	key := tableKey{fp: t.Fingerprint(), alg: "updown/" + policy.String()}
	return cachedCompile(key, func() (any, int64) {
		u := NewUpDownRooted(t, policy)
		return u, u.treeBytes()
	}).(*UpDown)
}

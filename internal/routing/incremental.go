package routing

import (
	"math"

	"repro/internal/geom"
	"repro/internal/topology"
)

// Incremental recompilation: bring an owned compiled table to a
// topology epoch's new state in place, in time proportional to the
// damage, not the chip.
//
// The key fact (DESIGN.md §10): a destination column of the minimal
// tables can change only if the epoch's channel delta touches a *tight*
// edge of that column's shortest-path DAG. Concretely, with row0 the
// previous distance column for destination dst:
//
//   - removing channel u→v perturbs the column iff row0[v] >= 0 and
//     row0[u] == row0[v]+1 (the channel was a minimal next hop of u);
//   - adding channel u→v perturbs the column iff row0[v] >= 0 and
//     (row0[u] < 0 or row0[u] >= row0[v]+1) (the channel creates an
//     equal-or-better path for u).
//
// If neither condition holds for any delta channel, the old column is a
// Bellman fixed point of the new graph with an unchanged tight-edge set,
// so both the distance row and the candidate masks are bit-identical —
// the column is left untouched.
//
// Perturbed columns are *repaired* where they stand: a Ramalingam/Reps
// style two-phase pass finds the exact set of nodes whose distance
// increased (phase A: layered candidate scan seeded at removed tight
// edges, then a bucket Dijkstra re-settles exactly that set), then an
// improvement cascade handles added edges and decreases (phase B).
// Candidate masks are recomputed only for nodes whose own distance, an
// out-neighbor's distance, or an outgoing channel changed. For the
// dominant churn event — one link flapping on a large mesh — the repair
// touches a handful of nodes per column while a from-scratch column BFS
// touches all of them. Column rebuilds (a router flipped, a repair
// declined) go through the all-pairs kernel (table.go), 64 columns per
// pass; they and same-size full fallbacks reuse the storage: no table is
// allocated.

// RecompileStats describes what one incremental recompile did, for the
// reconfig manager's counters and the churn experiment's deterministic
// table-update cost model.
type RecompileStats struct {
	// Full marks a from-scratch fallback (incomparable snapshots, or a
	// delta too large to be worth repairing).
	Full bool
	// ColsShared counts destination columns the delta provably could not
	// change, left untouched; ColsRepaired were patched in place;
	// ColsRebuilt were recomputed from scratch.
	ColsShared, ColsRepaired, ColsRebuilt int
	// DistShared counts repaired columns whose distance row turned out
	// untouched (mask-only repair).
	DistShared int
	// EntriesRewritten counts table entries that actually changed value
	// (repair) or were recomputed wholesale (rebuilt columns, charged at
	// full column size). This is the deterministic "table install" cost
	// the churn experiment converts into cycles.
	EntriesRewritten int64
}

// maxIncrementalDelta bounds, in flipped channels+routers, the delta an
// incremental recompile will attempt; larger epochs (mass failures,
// batch gating) fall back to the parallel cold compile.
func maxIncrementalDelta(n int) int { return n }

// affRepairLimit bounds the exact-increase set a column repair may
// settle before escalating to a column rebuild: past n/8 nodes the
// bucket Dijkstra stops being cheaper than a plain BFS.
func affRepairLimit(n int) int {
	if n < 32 {
		return 4
	}
	return n / 8
}

// Recompile brings m to t's current state in place: afterwards m is
// bit-identical to NewMinimal(t) — the property and fuzz tests in
// incremental_test.go hold it to that — and columns the delta did not
// perturb were never written. m must be owned by the caller (NewMinimal):
// a MinimalFor table is read concurrently by every simulation that asked
// for its fingerprint, so Recompile panics on one. Callers run it
// between cycles, never while another goroutine routes through m.
func (m *Minimal) Recompile(t *topology.Topology) RecompileStats {
	if m.shared {
		panic("routing: Recompile on a shared MinimalFor table; compile an owned one with NewMinimal")
	}
	g0, g1 := m.g, t.Flatten()
	n := g1.N
	m.g = g1
	delta, ok := topology.DiffFlat(g0, g1)
	if !ok || m.tab.n != n || delta.Size() > maxIncrementalDelta(n) {
		m.tab = compileMinimal(m.tab, g1, true, compileWorkers(n))
		return fullRecompile(n)
	}
	if delta.Empty() {
		return RecompileStats{ColsShared: n}
	}
	if m.rep == nil || m.rep.n != n {
		m.rep = newMinRepairer(n)
	}
	rep := m.rep
	rep.load(g1, &delta)
	// Column by column: keep what the delta cannot have changed, repair
	// the perturbed columns in place, and rebuild the rest (a router
	// flipped, or a repair declined) in one batched kernel call at the
	// end. A rebuilt column is charged at full size, a repaired one at
	// the entries that changed.
	var st RecompileStats
	var dsts []int32
	for dst, c := range m.tab.cols {
		if g0.Alive[dst] == g1.Alive[dst] {
			if !rep.columnPerturbed(c.dist) {
				st.ColsShared++
				continue
			}
			if dc, mc, ok := rep.repairColumn(c); ok {
				if dc == 0 {
					st.DistShared++
				}
				st.ColsRepaired++
				st.EntriesRewritten += int64(dc) + int64(mc)
				continue
			}
			// Exact-increase set blew past the repair limit before any
			// write: a rebuild is cheaper from here.
		}
		dsts = append(dsts, int32(dst))
		st.ColsRebuilt++
		st.EntriesRewritten += columnEntries(n)
	}
	if len(dsts) > 0 {
		rep.rebuildColumns(m.tab, dsts)
	}
	return st
}

// columnEntries is the number of table entries in one destination
// column: a distance and a mask byte per node.
func columnEntries(n int) int64 { return 2 * int64(n) }

// fullRecompile is the RecompileStats of a from-scratch fallback.
func fullRecompile(n int) RecompileStats {
	return RecompileStats{Full: true, ColsRebuilt: n, EntriesRewritten: int64(n) * columnEntries(n)}
}

// minRepairer is a Minimal's column-repair scratch, allocated at its
// first incremental Recompile and reused by every later one: the delta
// split into endpoint arrays and stamped node sets (one stamp bump per
// column instead of O(n) clears).
type minRepairer struct {
	g1 *topology.FlatGraph
	n  int
	// Delta channels as (tail, head) pairs; Adj is dimension-static so
	// heads are identical in both snapshots.
	remU, remV []int32
	addU, addV []int32

	// stamp persists across Recompiles; the stamp arrays are cleared
	// when it would wrap, so no stale mark can alias a new stamp.
	stamp int32
	candS []int32 // phase-A candidate dedupe
	affS  []int32 // exact increase set membership
	setS  []int32 // Dijkstra settled
	chgS  []int32 // distance-changed membership
	dirtS []int32 // mask-dirty membership
	oldS  []int32 // old[x] holds x's distance before this column's repair
	old   []int16

	buckets [][]int32 // shared by phase-A levels and the Dijkstra keys
	bkUsed  []int32   // touched bucket indices, for O(touched) cleanup
	aff     []int32
	changed []int32
	dirty   []int32
	queue   []int32 // phase-B cascade

	// bfs and pred are the kernel scratch of column rebuilds, allocated at
	// the first one.
	bfs  *bfsScratch
	pred []int32
}

func newMinRepairer(n int) *minRepairer {
	return &minRepairer{
		n:     n,
		candS: make([]int32, n),
		affS:  make([]int32, n),
		setS:  make([]int32, n),
		chgS:  make([]int32, n),
		dirtS: make([]int32, n),
		oldS:  make([]int32, n),
		old:   make([]int16, n),
		// Bucket keys: phase-A candidate levels stay < n, but Dijkstra
		// keys derive from boundary values that may sit above the true
		// distance (a neighbor that later decreases), growing by one per
		// increase-set hop — bounded by n + affRepairLimit(n).
		buckets: make([][]int32, n+affRepairLimit(n)+4),
		queue:   make([]int32, 0, n),
	}
}

// load points the repairer at the next snapshot and the delta to it.
func (r *minRepairer) load(g1 *topology.FlatGraph, delta *topology.FlatDelta) {
	r.g1 = g1
	r.remU, r.remV, r.addU, r.addV = r.remU[:0], r.remV[:0], r.addU[:0], r.addV[:0]
	for _, idx := range delta.Removed {
		r.remU = append(r.remU, idx/geom.NumLinkDirs)
		r.remV = append(r.remV, g1.Adj[idx])
	}
	for _, idx := range delta.Added {
		r.addU = append(r.addU, idx/geom.NumLinkDirs)
		r.addV = append(r.addV, g1.Adj[idx])
	}
}

// rebuildColumns recompiles tab's columns dsts over the loaded snapshot
// from scratch: one kernel pass per 64 columns, a lone column included.
func (r *minRepairer) rebuildColumns(tab *tables, dsts []int32) {
	if r.bfs == nil {
		r.bfs = newBFSScratch(r.n, true)
	}
	r.pred = predecessors(r.g1, r.pred)
	for lo := 0; lo < len(dsts); lo += batchRoots {
		r.bfs.minimalColumns(tab, r.g1, r.pred, dsts[lo:min(lo+batchRoots, len(dsts))], true)
	}
}

// nextColumn starts a column: a fresh stamp and empty work lists.
func (r *minRepairer) nextColumn() {
	if r.stamp == math.MaxInt32 {
		for _, s := range [][]int32{r.candS, r.affS, r.setS, r.chgS, r.dirtS, r.oldS} {
			clear(s)
		}
		r.stamp = 0
	}
	r.stamp++
	r.aff = r.aff[:0]
	r.changed = r.changed[:0]
	r.dirty = r.dirty[:0]
	r.clearBuckets()
}

// setDist overwrites dist[x], remembering the value it replaces the first
// time x is written in this column.
func (r *minRepairer) setDist(dist []int16, x int32, d int16) {
	if r.oldS[x] != r.stamp {
		r.oldS[x] = r.stamp
		r.old[x] = dist[x]
	}
	dist[x] = d
}

// prevDist is x's distance before this column's repair began.
func (r *minRepairer) prevDist(dist []int16, x int32) int16 {
	if r.oldS[x] == r.stamp {
		return r.old[x]
	}
	return dist[x]
}

// columnPerturbed applies the tight-edge conditions above to one
// previous distance row.
func (r *minRepairer) columnPerturbed(row []int16) bool {
	for i, u := range r.remU {
		v := r.remV[i]
		if row[v] >= 0 && row[u] == row[v]+1 {
			return true
		}
	}
	for i, u := range r.addU {
		v := r.addV[i]
		if row[v] >= 0 && (row[u] < 0 || row[u] >= row[v]+1) {
			return true
		}
	}
	return false
}

func (r *minRepairer) push(key int, x int32) {
	if len(r.buckets[key]) == 0 {
		r.bkUsed = append(r.bkUsed, int32(key))
	}
	r.buckets[key] = append(r.buckets[key], x)
}

func (r *minRepairer) clearBuckets() {
	for _, k := range r.bkUsed {
		r.buckets[k] = r.buckets[k][:0]
	}
	r.bkUsed = r.bkUsed[:0]
}

func (r *minRepairer) markDirty(x int32) {
	if r.dirtS[x] != r.stamp {
		r.dirtS[x] = r.stamp
		r.dirty = append(r.dirty, x)
	}
}

func (r *minRepairer) recordChanged(x int32) {
	if r.chgS[x] != r.stamp {
		r.chgS[x] = r.stamp
		r.changed = append(r.changed, x)
	}
}

// repairColumn patches column c in place under the repairer's delta.
// Returns the number of distance and mask entries whose value changed, or
// ok=false — before writing anything — when the increase set exceeded the
// repair limit (caller rebuilds the column instead). On ok, c holds the
// exact column a fresh BFS would produce.
func (r *minRepairer) repairColumn(c col) (distChanged, maskChanged int, ok bool) {
	g1, n := r.g1, r.n
	dist := c.dist
	r.nextColumn()
	limit := affRepairLimit(n)

	// Phase A: find the exact set of nodes whose distance increased.
	// Candidates are processed in increasing old-distance order; a
	// candidate survives (stays unchanged) iff it still has a tight
	// out-edge to an unincreased node at the level below. Seeds are the
	// tails of removed tight edges; an increased node propagates
	// candidacy to its tight predecessors one level up.
	lo, hi := n+1, -1
	for i, u := range r.remU {
		v := r.remV[i]
		r.markDirty(u) // out-channel set changed: mask may change
		if dist[v] >= 0 && dist[u] == dist[v]+1 && r.candS[u] != r.stamp {
			r.candS[u] = r.stamp
			d := int(dist[u])
			r.push(d, u)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
	}
	for _, u := range r.addU {
		r.markDirty(u)
	}
	for d := lo; d <= hi; d++ {
		for bi := 0; bi < len(r.buckets[d]); bi++ {
			x := r.buckets[d][bi]
			supported := false
			for dir := 0; dir < geom.NumLinkDirs; dir++ {
				w := g1.Next[geom.NumLinkDirs*int(x)+dir]
				if w >= 0 && dist[w] == int16(d-1) && r.affS[w] != r.stamp {
					supported = true
					break
				}
			}
			if supported {
				continue
			}
			r.affS[x] = r.stamp
			r.aff = append(r.aff, x)
			if len(r.aff) > limit {
				return 0, 0, false
			}
			// Tight predecessors of x become candidates one level up.
			for dir := 0; dir < geom.NumLinkDirs; dir++ {
				p := g1.Adj[geom.NumLinkDirs*int(x)+dir]
				if p < 0 || g1.Next[geom.NumLinkDirs*int(p)+int(geom.Direction(dir).Opposite())] != x {
					continue
				}
				if dist[p] == int16(d+1) && r.candS[p] != r.stamp {
					r.candS[p] = r.stamp
					r.push(d+1, p)
					if d+1 > hi {
						hi = d + 1
					}
				}
			}
		}
	}

	// Phase A settle: bucket Dijkstra over exactly the increase set,
	// seeded from each member's best unincreased out-neighbor.
	if len(r.aff) > 0 {
		r.clearBuckets()
		for _, a := range r.aff {
			r.setDist(dist, a, -1)
		}
		hi = -1
		for _, a := range r.aff {
			best := -1
			for dir := 0; dir < geom.NumLinkDirs; dir++ {
				w := g1.Next[geom.NumLinkDirs*int(a)+dir]
				if w >= 0 && r.affS[w] != r.stamp && dist[w] >= 0 && (best < 0 || int(dist[w])+1 < best) {
					best = int(dist[w]) + 1
				}
			}
			if best >= 0 {
				r.push(best, a)
				if best > hi {
					hi = best
				}
			}
		}
		for d := 0; d <= hi; d++ {
			for bi := 0; bi < len(r.buckets[d]); bi++ {
				x := r.buckets[d][bi]
				if r.setS[x] == r.stamp {
					continue
				}
				r.setS[x] = r.stamp
				dist[x] = int16(d) // x is in aff: its old value is kept
				if r.prevDist(dist, x) != int16(d) {
					r.recordChanged(x)
				}
				for dir := 0; dir < geom.NumLinkDirs; dir++ {
					p := g1.Adj[geom.NumLinkDirs*int(x)+dir]
					if p < 0 || g1.Next[geom.NumLinkDirs*int(p)+int(geom.Direction(dir).Opposite())] != x {
						continue
					}
					if r.affS[p] == r.stamp && r.setS[p] != r.stamp {
						r.push(d+1, p)
						if d+1 > hi {
							hi = d + 1
						}
					}
				}
			}
		}
		// Unsettled members are unreachable in the new graph.
		for _, a := range r.aff {
			if r.setS[a] != r.stamp && r.prevDist(dist, a) >= 0 {
				r.recordChanged(a)
			}
		}
		r.clearBuckets()
	}

	// Phase B: improvement cascade. Added channels (via their heads) and
	// any node phase A re-settled can only *lower* predecessors now; a
	// plain BFS-style relaxation queue reaches the fixed point.
	q := r.queue[:0]
	for i := range r.addU {
		if v := r.addV[i]; dist[v] >= 0 {
			q = append(q, v)
		}
	}
	for _, x := range r.changed {
		if dist[x] >= 0 {
			q = append(q, x)
		}
	}
	for qi := 0; qi < len(q); qi++ {
		x := q[qi]
		dx := dist[x]
		for dir := 0; dir < geom.NumLinkDirs; dir++ {
			p := g1.Adj[geom.NumLinkDirs*int(x)+dir]
			if p < 0 || g1.Next[geom.NumLinkDirs*int(p)+int(geom.Direction(dir).Opposite())] != x {
				continue
			}
			if dist[p] < 0 || dist[p] > dx+1 {
				r.setDist(dist, p, dx+1)
				r.recordChanged(p)
				q = append(q, p)
			}
		}
	}
	r.queue = q[:0]

	// Masks: recompute for every node whose distance, out-channel set,
	// or out-neighbor distance changed; everything else is untouched.
	for _, x := range r.changed {
		r.markDirty(x)
		for dir := 0; dir < geom.NumLinkDirs; dir++ {
			p := g1.Adj[geom.NumLinkDirs*int(x)+dir]
			if p >= 0 && g1.Next[geom.NumLinkDirs*int(p)+int(geom.Direction(dir).Opposite())] == x {
				r.markDirty(p)
			}
		}
	}
	for _, x := range r.dirty {
		var m uint8
		if dist[x] > 0 {
			for dir := 0; dir < geom.NumLinkDirs; dir++ {
				nb := g1.Next[geom.NumLinkDirs*int(x)+dir]
				if nb >= 0 && dist[nb] == dist[x]-1 {
					m |= 1 << uint(dir)
				}
			}
		}
		if c.mask[x] != m {
			c.mask[x] = m
			maskChanged++
		}
	}
	for _, x := range r.changed {
		if dist[x] != r.prevDist(dist, x) {
			distChanged++
		}
	}
	return distChanged, maskChanged, true
}

// TableEntries returns the number of table entries a full compile of
// this router writes (the churn experiment's unit of table-install
// cost).
func (m *Minimal) TableEntries() int64 { return fullRecompile(m.tab.n).EntriesRewritten }

package routing

import (
	"repro/internal/geom"
	"repro/internal/topology"
)

// Incremental recompilation: rebuild compiled routing tables after a
// topology epoch in time proportional to the damage, not the chip.
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
// the column is shared pointer-identically with the previous table.
//
// Perturbed columns are *repaired*, not recomputed: a Ramalingam/Reps
// style two-phase pass finds the exact set of nodes whose distance
// increased (phase A: layered candidate scan seeded at removed tight
// edges, then a bucket Dijkstra re-settles exactly that set), then an
// improvement cascade handles added edges and decreases (phase B).
// Candidate masks are recomputed only for nodes whose own distance, an
// out-neighbor's distance, or an outgoing channel changed. For the
// dominant churn event — one link flapping on a large mesh — the repair
// touches a handful of nodes per column while a from-scratch column BFS
// touches all of them.

// RecompileStats describes what one incremental recompile did, for the
// reconfig manager's counters and the churn experiment's deterministic
// table-update cost model.
type RecompileStats struct {
	// Full marks a from-scratch fallback (incomparable snapshots, first
	// build, or a delta too large to be worth repairing).
	Full bool
	// ColsShared counts destination columns shared pointer-identically
	// with the previous table; ColsRepaired were patched in place from
	// the previous column; ColsRebuilt ran a full column BFS.
	ColsShared, ColsRepaired, ColsRebuilt int
	// DistShared counts repaired columns whose distance row turned out
	// untouched (mask-only repair), sharing the previous distance slice.
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
// settle before escalating to a full column BFS: past n/8 nodes the
// bucket Dijkstra stops being cheaper than the plain BFS.
func affRepairLimit(n int) int {
	if n < 32 {
		return 4
	}
	return n / 8
}

// Recompile compiles tables for t's current state, reusing m (the tables
// compiled for some earlier state of the same mesh) wherever the delta
// between the two states provably cannot have changed the result. The
// returned Minimal is bit-identical to NewMinimal(t) — the property and
// fuzz tests in incremental_test.go hold it to that — and columns the
// delta did not perturb are shared pointer-identically with m. m itself
// is never mutated (compiled tables stay immutable), so previous epochs
// and cached fingerprints remain valid.
func (m *Minimal) Recompile(t *topology.Topology) (*Minimal, RecompileStats) {
	g1 := t.Flatten()
	n := g1.N
	delta, ok := topology.DiffFlat(m.g, g1)
	if !ok || m.tab == nil || m.tab.n != n || delta.Size() > maxIncrementalDelta(n) {
		return &Minimal{g: g1, tab: compileMinimal(g1, compileWorkers(n))}, fullRecompile(n, 1)
	}
	if delta.Empty() {
		return &Minimal{g: g1, tab: m.tab}, RecompileStats{ColsShared: n}
	}
	rep := newMinRepairer(g1, &delta)
	cls := make([]uint8, n)
	for dst := 0; dst < n; dst++ {
		switch {
		case rep.aliveFlip[dst]:
			cls[dst] = clsRebuild
		case rep.columnPerturbed(m.tab.cols[dst].dist):
			cls[dst] = clsRepair
		}
	}
	tab, st := patchTables(m.tab, 1, cls, rep.repairColumn, func(dst int, c col) {
		rep.queue = compileMinColumn(g1, dst, c, rep.queue)
	})
	return &Minimal{g: g1, tab: tab}, st
}

// Column classes of an incremental recompile.
const (
	clsShare   = iota // alias the previous epoch's pages
	clsRepair         // patch a copy of the previous column
	clsRebuild        // full column BFS
)

// columnEntries is the number of table entries in one destination
// column: distPerNode distances plus one mask byte per node.
func columnEntries(n, distPerNode int) int64 { return int64(distPerNode+1) * int64(n) }

// fullRecompile is the RecompileStats of a from-scratch fallback.
func fullRecompile(n, distPerNode int) RecompileStats {
	return RecompileStats{Full: true, ColsRebuilt: n, EntriesRewritten: int64(n) * columnEntries(n, distPerNode)}
}

// patchTables assembles the next epoch's table from prev under a
// per-destination classification: clsShare columns alias prev's pages;
// the rest are carved from one arena allocation and filled by repair
// (clsRepair; a repair that declines falls through to a rebuild) or by
// rebuild. It owns the RecompileStats accounting, so both algorithms
// charge a rebuilt column at its full size and a repaired one at the
// entries that changed.
func patchTables(prev *tables, distPerNode int, cls []uint8,
	repair func(prev, c col) (distChanged, maskChanged int, ok bool),
	rebuild func(dst int, c col)) (*tables, RecompileStats) {
	n := prev.n
	fresh := 0
	for _, k := range cls {
		if k != clsShare {
			fresh++
		}
	}
	t1 := &tables{n: n, cols: make([]col, n)}
	at := colArena(fresh, n, distPerNode)
	var st RecompileStats
	slot := 0
	for dst := 0; dst < n; dst++ {
		p := prev.cols[dst]
		if cls[dst] == clsShare {
			t1.cols[dst] = p
			st.ColsShared++
			continue
		}
		c := at(slot)
		slot++
		if cls[dst] == clsRepair {
			if dc, mc, ok := repair(p, c); ok {
				if dc == 0 {
					c.dist = p.dist // untouched row: share it too
					st.DistShared++
				}
				t1.cols[dst] = c
				st.ColsRepaired++
				st.EntriesRewritten += int64(dc) + int64(mc)
				continue
			}
			// Exact-increase set blew past the repair limit: the column
			// BFS is cheaper from here.
		}
		rebuild(dst, c)
		t1.cols[dst] = c
		st.ColsRebuilt++
		st.EntriesRewritten += columnEntries(n, distPerNode)
	}
	return t1, st
}

// minRepairer holds the per-Recompile scratch for column repairs: the
// delta split into endpoint arrays and stamped node sets reused across
// columns (one stamp bump per column instead of O(n) clears).
type minRepairer struct {
	g1 *topology.FlatGraph
	n  int
	// Delta channels as (tail, head) pairs; Adj is dimension-static so
	// heads are identical in both snapshots.
	remU, remV []int32
	addU, addV []int32
	aliveFlip  []bool

	stamp int32
	candS []int32 // phase-A candidate dedupe
	affS  []int32 // exact increase set membership
	setS  []int32 // Dijkstra settled
	chgS  []int32 // distance-changed membership
	dirtS []int32 // mask-dirty membership

	buckets [][]int32 // shared by phase-A levels and the Dijkstra keys
	bkUsed  []int32   // touched bucket indices, for O(touched) cleanup
	aff     []int32
	changed []int32
	dirty   []int32
	queue   []int32 // phase-B cascade + column-BFS scratch
}

func newMinRepairer(g1 *topology.FlatGraph, delta *topology.FlatDelta) *minRepairer {
	n := g1.N
	r := &minRepairer{
		g1:        g1,
		n:         n,
		aliveFlip: make([]bool, n),
		candS:     make([]int32, n),
		affS:      make([]int32, n),
		setS:      make([]int32, n),
		chgS:      make([]int32, n),
		dirtS:     make([]int32, n),
		// Bucket keys: phase-A candidate levels stay < n, but Dijkstra
		// keys derive from boundary values that may sit above the true
		// distance (a neighbor that later decreases), growing by one per
		// increase-set hop — bounded by n + affRepairLimit(n).
		buckets: make([][]int32, n+affRepairLimit(n)+4),
		queue:   make([]int32, 0, n),
	}
	for _, idx := range delta.Removed {
		r.remU = append(r.remU, idx/geom.NumLinkDirs)
		r.remV = append(r.remV, g1.Adj[idx])
	}
	for _, idx := range delta.Added {
		r.addU = append(r.addU, idx/geom.NumLinkDirs)
		r.addV = append(r.addV, g1.Adj[idx])
	}
	for _, x := range delta.AliveChanged {
		r.aliveFlip[x] = true
	}
	return r
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

// repairColumn patches prev (for one destination) into c under the
// repairer's delta. Returns the number of distance and mask entries
// whose value changed, or ok=false when the increase set exceeded the
// repair limit (caller rebuilds the column instead). c must not alias
// prev; on return c holds the exact column a fresh BFS would produce.
func (r *minRepairer) repairColumn(prev, c col) (distChanged, maskChanged int, ok bool) {
	g1, n := r.g1, r.n
	copy(c.dist, prev.dist)
	copy(c.mask, prev.mask)
	dist := c.dist
	r.stamp++
	r.aff = r.aff[:0]
	r.changed = r.changed[:0]
	r.dirty = r.dirty[:0]
	r.clearBuckets()
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
			dist[a] = -1
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
				dist[x] = int16(d)
				if prev.dist[x] != int16(d) {
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
			if r.setS[a] != r.stamp && prev.dist[a] >= 0 {
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
				dist[p] = dx + 1
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
		if dist[x] != prev.dist[x] {
			distChanged++
		}
	}
	return distChanged, maskChanged, true
}

// Recompile rebuilds the tree and the all-links tables for t's current
// state, sharing table columns with u when the spanning trees are
// effectively unchanged. The result is bit-identical to
// NewUpDownRooted(t, policy).Compile() with u's policy. Tree
// construction is always rerun (it is O(V+E) and its output feeds the
// comparison); when the levels and the up/down classification of every
// channel usable in both snapshots are unchanged, only columns whose
// state-graph tight edges the delta touched are recompiled — the rest
// share u's column pages.
func (u *UpDownTable) Recompile(t *topology.Topology) (*UpDownTable, RecompileStats) {
	nu := &UpDownTable{UpDown: NewUpDownRooted(t, u.policy), g: t.Flatten()}
	n := nu.g.N
	full := func() (*UpDownTable, RecompileStats) {
		nu.compile()
		return nu, fullRecompile(n, 2)
	}
	delta, ok := topology.DiffFlat(u.g, nu.g)
	if !ok || u.tab.n != n || delta.Size() > maxIncrementalDelta(n) {
		return full()
	}
	for i := range nu.level {
		if nu.level[i] != u.level[i] {
			return full()
		}
	}
	// The up/down classification must agree on every channel usable in
	// both snapshots; channels usable in only one are exactly the delta
	// and are checked per column below.
	for v := 0; v < n; v++ {
		if (nu.upMask[v]^u.upMask[v])&u.g.LinkMask[v]&nu.g.LinkMask[v] != 0 {
			return full()
		}
	}
	if delta.Empty() {
		nu.tab = u.tab
		return nu, RecompileStats{ColsShared: n}
	}
	type stateEdge struct {
		u, v   int32
		chanUp bool
	}
	edges := func(idxs []int32, upMask []uint8) []stateEdge {
		var out []stateEdge
		for _, idx := range idxs {
			eu, ev := idx/geom.NumLinkDirs, nu.g.Adj[idx]
			if nu.level[eu] < 0 || nu.level[ev] < 0 {
				continue // dead/unrouted endpoints never enter the state graph
			}
			out = append(out, stateEdge{eu, ev, upMask[eu]&(1<<uint(idx%geom.NumLinkDirs)) != 0})
		}
		return out
	}
	removed := edges(delta.Removed, u.upMask) // classified as of the old snapshot
	added := edges(delta.Added, nu.upMask)    // classified as of the new snapshot
	// Per-column perturbation check on the (node, phase) state graph.
	// An up channel u→v carries state edge (u,up)→(v,up); a down channel
	// carries (u,up)→(v,down) and (u,down)→(v,down).
	perturbed := func(row []int16) bool {
		tightRemoved := func(su, sv int) bool {
			return row[sv] >= 0 && row[su] == row[sv]+1
		}
		improves := func(su, sv int) bool {
			return row[sv] >= 0 && (row[su] < 0 || row[su] >= row[sv]+1)
		}
		for _, e := range removed {
			if e.chanUp {
				if tightRemoved(2*int(e.u)+phaseUp, 2*int(e.v)+phaseUp) {
					return true
				}
			} else if tightRemoved(2*int(e.u)+phaseUp, 2*int(e.v)+phaseDown) ||
				tightRemoved(2*int(e.u)+phaseDown, 2*int(e.v)+phaseDown) {
				return true
			}
		}
		for _, e := range added {
			if e.chanUp {
				if improves(2*int(e.u)+phaseUp, 2*int(e.v)+phaseUp) {
					return true
				}
			} else if improves(2*int(e.u)+phaseUp, 2*int(e.v)+phaseDown) ||
				improves(2*int(e.u)+phaseDown, 2*int(e.v)+phaseDown) {
				return true
			}
		}
		return false
	}
	// Share or rebuild: a perturbed state-graph column is recompiled
	// whole, never repaired.
	cls := make([]uint8, n)
	for dst := 0; dst < n; dst++ {
		if perturbed(u.tab.cols[dst].dist) {
			cls[dst] = clsRebuild
		}
	}
	queue := make([]int32, 0, 2*n)
	var st RecompileStats
	nu.tab, st = patchTables(u.tab, 2, cls, nil, func(dst int, c col) {
		queue = compileUDColumn(nu.g, nu.level, nu.upMask, dst, c, queue)
	})
	return nu, st
}

// TableEntries returns the number of table entries a full compile of
// this router writes (the churn experiment's unit of table-install
// cost).
func (m *Minimal) TableEntries() int64 { return fullRecompile(m.tab.n, 1).EntriesRewritten }

// TableEntries is the up*/down* analog — per destination column, 2n state
// distances plus n mask bytes — as arithmetic on the tree's node count:
// the churn experiment charges sp_tree a whole-table reinstall per event
// without building the table.
func (u *UpDown) TableEntries() int64 { return fullRecompile(len(u.level), 2).EntriesRewritten }

package routing

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/topology"
)

// This file is the topology compilation layer: it lowers a (topology,
// algorithm) pair into flat arrays so the per-packet hot path never
// walks the graph. For every destination the compiler computes
//
//   - a dense int16 distance row (the BFS), and
//   - one packed next-hop candidate byte per (node, dst): bit i set
//     means geom.LinkDirs[i] is a legal minimal next hop. AppendRoute
//     is then one mask load plus a popcount-indexed pick per hop, with
//     one rng draw (Intn(candidates)) iff candidates > 1 — the draw
//     sequence every seeded trajectory depends on.
//
// Both algorithms share one table shape. Minimal routing has one
// distance per node; up*/down* has two (one per phase of the
// (node, phase) state graph) and packs the two phases' candidates into
// the nibbles of the mask byte.
//
// Tables are stored as per-destination column pages rather than one
// n×n slab so an incremental recompile (incremental.go) can repair or
// rebuild one destination's column where it stands and leave the
// columns an epoch did not perturb untouched. Each array is still one
// contiguous block sliced per column, so the hot path sees one
// contiguous block per array.
//
// Ownership decides what is kept. A process-wide table (cache.go's
// MinimalFor) is immutable, which is what makes one instance shareable
// across the sweep engine's workers and the sharded core's parallel
// injection phase (see race_test.go); nothing reads its distances once
// the masks exist, so it keeps masks only and its compile BFSes into a
// per-worker scratch row. A table from NewMinimal or (*UpDown).Compile
// belongs to its caller and changes only inside Recompile, which reconfig
// calls between cycles on the coordinator and which repairs from the
// kept distance rows.

// col is one destination's column of a compiled table. Copying the
// struct aliases the backing arrays.
type col struct {
	// dist holds distPerNode distances per node toward the destination,
	// -1 unreachable. Minimal: [node], directed hops. Up*/down*:
	// [2*node+phase], distance on the state graph. Nil in a masks-only
	// (shared) table.
	dist []int16
	// mask[node] is the next-hop candidate byte. Minimal: bit d set iff d
	// is a minimal next hop. Up*/down*: low nibble = phaseUp candidates,
	// high nibble = phaseDown candidates.
	mask []uint8
}

// tables is the compiled form of a routing algorithm over a FlatGraph,
// one column page per destination.
type tables struct {
	n    int
	cols []col // [dst]
}

// newTables allocates a table with every column backed by one
// contiguous block per array; w is the distance-row width per column, 0
// for a masks-only table.
func newTables(n, w int) *tables {
	t := &tables{n: n, cols: make([]col, n)}
	dist := make([]int16, n*w)
	mask := make([]uint8, n*n)
	for d := range t.cols {
		t.cols[d].mask = mask[d*n : (d+1)*n : (d+1)*n]
		if w > 0 {
			t.cols[d].dist = dist[d*w : (d+1)*w : (d+1)*w]
		}
	}
	return t
}

// bytes returns the heap footprint of the table arrays.
func (t *tables) bytes() int64 {
	var b int64
	for i := range t.cols {
		b += 2*int64(len(t.cols[i].dist)) + int64(len(t.cols[i].mask))
	}
	return b
}

// compileParallelThreshold is the node count below which a cold compile
// runs sequentially: a full 16x16 compile is a few hundred microseconds,
// cheaper than fanning out goroutines.
const compileParallelThreshold = 256

// maxCompileWorkers bounds the cold-compile worker pool (the sweep
// engine's bounded-worker idiom): table compilation is memory-bound, so
// more than a few workers just thrash shared cache.
const maxCompileWorkers = 8

// compileWorkers picks the worker count for an n-destination compile.
func compileWorkers(n int) int {
	if n < compileParallelThreshold {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), maxCompileWorkers)
}

// compileColumns cold-compiles an n-destination table into t's storage
// when t has n columns (a recompile's full fallback), else into a new
// table that keeps its distance rows iff keepDist: fill computes one
// destination's column over whatever it held (queue is per-worker BFS
// scratch, returned so capacity growth is kept). A masks-only column is
// handed to fill with the worker's scratch distance row. With workers > 1
// the destinations fan across a bounded pool; every column is computed
// independently and workers write disjoint columns, so the output is
// byte-identical to the sequential compile at any worker count.
func compileColumns(t *tables, n, distPerNode int, keepDist bool, workers int, fill func(dst int, c col, queue []int32) []int32) *tables {
	if t == nil || t.n != n {
		w := 0
		if keepDist {
			w = distPerNode * n
		}
		t = newTables(n, w)
	}
	workers = max(workers, 1)
	work := func(first int) {
		queue := make([]int32, 0, distPerNode*n)
		var row []int16 // a masks-only table's BFS scratch
		if !keepDist {
			row = make([]int16, distPerNode*n)
		}
		for dst := first; dst < n; dst += workers {
			c := t.cols[dst]
			if !keepDist {
				c.dist = row
			}
			queue = fill(dst, c, queue)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	return t
}

// compileMinimal builds the minimal-routing tables for every destination
// of g, reusing t's storage as compileColumns does: one reverse BFS per
// destination (O(N) each), then a candidate-mask fill.
func compileMinimal(t *tables, g *topology.FlatGraph, keepDist bool, workers int) *tables {
	return compileColumns(t, g.N, 1, keepDist, workers, func(dst int, c col, queue []int32) []int32 {
		return compileMinColumn(g, dst, c, queue)
	})
}

// compileMinColumn fills one destination's column: reverse BFS for the
// distance row, then the candidate-mask fill. queue is caller-provided
// scratch (returned so capacity growth is kept).
func compileMinColumn(g *topology.FlatGraph, dst int, c col, queue []int32) []int32 {
	row := c.dist
	for i := range row {
		row[i] = -1
	}
	for i := range c.mask {
		c.mask[i] = 0
	}
	if !g.Alive[dst] {
		return queue
	}
	row[dst] = 0
	queue = append(queue[:0], int32(dst))
	for head := 0; head < len(queue); head++ {
		cur := int(queue[head])
		// Predecessors of cur: nodes p with a usable channel p→cur.
		for d := 0; d < geom.NumLinkDirs; d++ {
			p := g.Adj[geom.NumLinkDirs*cur+d]
			if p < 0 || g.Next[geom.NumLinkDirs*int(p)+int(geom.Direction(d).Opposite())] != int32(cur) {
				continue
			}
			if row[p] < 0 {
				row[p] = row[cur] + 1
				queue = append(queue, p)
			}
		}
	}
	// Candidate masks: every usable outgoing channel that decreases
	// the distance by exactly one.
	for v := 0; v < len(row); v++ {
		if row[v] <= 0 {
			continue
		}
		var m uint8
		for d := 0; d < geom.NumLinkDirs; d++ {
			nb := g.Next[geom.NumLinkDirs*v+d]
			if nb >= 0 && row[nb] == row[v]-1 {
				m |= 1 << uint(d)
			}
		}
		c.mask[v] = m
	}
	return queue
}

const (
	phaseUp   = 0 // may still take up channels
	phaseDown = 1 // committed to down channels only
)

// compileUpDown builds the up*/down* tables, reusing t's storage as
// compileColumns does: distances on the (node, phase) state graph and
// the two phases' candidates packed into one mask byte. level is the
// BFS-tree level array (-1 dead/unrouted) and upMask[v] has bit d set
// iff the channel v→d is an "up" channel; both come from the
// spanning-tree construction in updown.go.
func compileUpDown(t *tables, g *topology.FlatGraph, level []int, upMask []uint8, workers int) *tables {
	return compileColumns(t, g.N, 2, true, workers, func(dst int, c col, queue []int32) []int32 {
		return compileUDColumn(g, level, upMask, dst, c, queue)
	})
}

// compileUDColumn fills one destination's up*/down* column: BFS over
// (node, phase) states walking legal transitions backward, then the
// per-phase candidate-mask fill. queue is caller-provided scratch.
func compileUDColumn(g *topology.FlatGraph, level []int, upMask []uint8, dst int, c col, queue []int32) []int32 {
	row := c.dist
	for i := range row {
		row[i] = -1
	}
	for i := range c.mask {
		c.mask[i] = 0
	}
	if level[dst] < 0 {
		return queue
	}
	// BFS over (node, phase) states, walking legal transitions
	// backward: an up channel keeps phaseUp and requires phaseUp
	// before it; a down channel lands in phaseDown from either phase.
	row[2*dst+phaseUp] = 0
	row[2*dst+phaseDown] = 0
	queue = append(queue[:0], int32(2*dst+phaseUp), int32(2*dst+phaseDown))
	for head := 0; head < len(queue); head++ {
		st := int(queue[head])
		node, phase := st>>1, st&1
		sd := row[st]
		for d := 0; d < geom.NumLinkDirs; d++ {
			v := g.Adj[geom.NumLinkDirs*node+d]
			if v < 0 || g.Next[geom.NumLinkDirs*int(v)+int(geom.Direction(d).Opposite())] != int32(node) {
				continue
			}
			if level[v] < 0 {
				continue
			}
			chanUp := upMask[v]&(1<<uint(geom.Direction(d).Opposite())) != 0 // channel v→node
			var lo, hi int
			switch {
			case chanUp && phase == phaseUp:
				lo, hi = phaseUp, phaseUp
			case !chanUp && phase == phaseDown:
				lo, hi = phaseUp, phaseDown
			default:
				continue
			}
			for pv := lo; pv <= hi; pv++ {
				idx := 2*int(v) + pv
				if row[idx] < 0 {
					row[idx] = sd + 1
					queue = append(queue, int32(idx))
				}
			}
		}
	}
	// Candidate masks per phase.
	n := len(c.mask)
	for v := 0; v < n; v++ {
		if level[v] < 0 {
			continue
		}
		var m uint8
		curUp, curDown := row[2*v+phaseUp], row[2*v+phaseDown]
		for d := 0; d < geom.NumLinkDirs; d++ {
			nb := g.Next[geom.NumLinkDirs*v+d]
			if nb < 0 {
				continue
			}
			chanUp := upMask[v]&(1<<uint(d)) != 0
			next := phaseDown
			if chanUp {
				next = phaseUp
			}
			nd := row[2*int(nb)+next]
			if curUp > 0 && nd == curUp-1 {
				m |= 1 << uint(d)
			}
			// phaseDown may only continue on down channels.
			if !chanUp && curDown > 0 && nd == curDown-1 {
				m |= 1 << (4 + uint(d))
			}
		}
		c.mask[v] = m
	}
	return queue
}

// pickDir returns the k-th set direction of candidate mask m (bit i is
// geom.LinkDirs[i], so candidates enumerate in N,E,S,W order — the
// order AppendRouteOneShot's graph walk uses), drawing k from rng iff
// more than one candidate exists — the rng contract every seeded
// trajectory depends on.
func pickDir(m uint8, rng *rand.Rand) geom.Direction {
	cnt := bits.OnesCount8(uint8(m))
	k := 0
	if rng != nil && cnt > 1 {
		k = rng.Intn(cnt)
	}
	for i := 0; i < geom.NumLinkDirs; i++ {
		if m&(1<<uint(i)) != 0 {
			if k == 0 {
				return geom.Direction(i)
			}
			k--
		}
	}
	return geom.Invalid
}

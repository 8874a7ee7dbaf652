package routing

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/topology"
)

// This file is the topology compilation layer: it lowers a (topology,
// algorithm) pair into flat arrays so the per-packet hot path never
// walks the graph. For every destination the compiler produces
//
//   - a dense int16 distance row, and
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
// Minimal columns come out of the all-pairs kernel below, which runs the
// reverse BFSes of 64 destinations as one bit-sliced pass: cold
// compiles, a recompile's full fallback and its column rebuilds alike.
// The median-root election in updown.go runs the same kernel forward.
// Up*/down* columns BFS the state graph one destination at a time.
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
// across the sweep engine's workers (see race_test.go); nothing reads its
// distances once the masks exist, so it keeps masks only, which the kernel
// produces without a distance row. A table from NewMinimal or
// (*UpDown).Compile belongs to its caller and changes only inside
// Recompile, which reconfig calls between cycles and which repairs from the
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

// fanOut runs work(first, stride) on workers goroutines, the caller's
// included: worker w takes items w, w+stride, ... of whatever work
// strides over. It returns once every worker is done.
func fanOut(workers int, work func(first, stride int)) {
	workers = max(workers, 1)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w, workers)
		}(w)
	}
	work(0, workers)
	wg.Wait()
}

// The all-pairs kernel: one breadth-first search carries up to 64 roots.
// Every node holds one uint64 per array, bit i standing for the pass's
// i-th root, and the roots' searches advance in lockstep, one level per
// round. A round pushes the frontier's words to their neighbours to
// collect candidates, then each candidate pulls the previous level's
// words of its own neighbours: the roots it is newly reached by are
// their OR minus the roots that already reached it. The inner loops are
// word ORs, not a branch per edge, and a batch of roots from one 8x8
// mesh tile keeps each level's frontier a narrow band.

// batchRoots is the number of roots one kernel pass carries.
const batchRoots = 64

// tileSide is the side of the mesh tiles a full compile batches roots by.
const tileSide = 8

// tileOrder returns every node id of a w×h mesh grouped by tile (tiles
// row-major, ids ascending within one). Cut into runs of batchRoots it is
// the full compile's batches; where w or h is not a multiple of 8 the
// edge tiles are ragged and a run may span two tiles.
func tileOrder(w, h int) []int32 {
	ids := make([]int32, 0, w*h)
	for ty := 0; ty < h; ty += tileSide {
		for tx := 0; tx < w; tx += tileSide {
			for y := ty; y < min(ty+tileSide, h); y++ {
				for x := tx; x < min(tx+tileSide, w); x++ {
					ids = append(ids, int32(y*w+x))
				}
			}
		}
	}
	return ids
}

// predecessors fills pred with the reverse adjacency of g's usable
// channels: pred[4v+d] is the node p = Adj[4v+d] when the channel p→v is
// usable, else -1. It returns pred, grown to 4·g.N entries.
func predecessors(g *topology.FlatGraph, pred []int32) []int32 {
	pred = slices.Grow(pred[:0], geom.NumLinkDirs*g.N)[:geom.NumLinkDirs*g.N]
	for i := range pred {
		pred[i] = -1
	}
	for i, v := range g.Next {
		if v >= 0 {
			d := geom.Direction(i % geom.NumLinkDirs).Opposite()
			pred[geom.NumLinkDirs*int(v)+int(d)] = int32(i / geom.NumLinkDirs)
		}
	}
	return pred
}

// bfsScratch is one worker's kernel state. Word arrays are indexed by
// node id + 1, so a -1 adjacency entry reads slot 0, which holds zero: a
// missing channel contributes no roots without a branch. At n = 1024 a
// masks pass's scratch is 64 KB.
type bfsScratch struct {
	n int
	// reached[v+1] has bit i set once root i's search reached v;
	// front[v+1] and next[v+1] hold the roots reaching v at exactly the
	// current and the next level, and are zero off the frontier.
	reached, front, next []uint64
	// dirw[4v+d] has bit i set iff d is a minimal next hop of v toward
	// root i (a reverse pass's candidate masks, still bit-sliced); nil in
	// a distances-only scratch.
	dirw []uint64
	// cur and cand list the frontier and the next level's candidates, as
	// id + 1.
	cur, cand []int32
	// rows holds the distance rows minimalColumns hands a pass.
	rows [batchRoots][]int16
}

func newBFSScratch(n int, masks bool) *bfsScratch {
	words := make([]uint64, 3*(n+1))
	lists := make([]int32, 2*(n+1))
	s := &bfsScratch{
		n:       n,
		reached: words[: n+1 : n+1],
		front:   words[n+1 : 2*(n+1) : 2*(n+1)],
		next:    words[2*(n+1):],
		cur:     lists[: n+1 : n+1],
		cand:    lists[n+1:],
	}
	if masks {
		s.dirw = make([]uint64, geom.NumLinkDirs*n)
	}
	return s
}

// pass runs one search from roots (at most batchRoots; a dead root seeds
// nothing). A frontier node u pushes to push[4u+d] and a candidate v
// pulls from pull[4v+d]: a reverse pass (distances toward the roots)
// pushes to predecessors and pulls from g.Next, a forward pass swaps the
// two. rows, when non-nil, receives root i's distance per node in
// rows[i] (-1 unreached). A reverse pass with direction words leaves the
// roots' candidate masks in dirw.
func (s *bfsScratch) pass(push, pull []int32, alive []bool, roots []int32, rows [][]int16) {
	reached, front, next, dirw := s.reached, s.front, s.next, s.dirw
	clear(reached)
	clear(dirw)
	cur, cand := s.cur[:0], s.cand
	for i, r := range roots {
		if rows != nil {
			row := rows[i]
			for v := range row {
				row[v] = -1
			}
			if alive[r] {
				row[r] = 0
			}
		}
		if alive[r] {
			reached[r+1] |= 1 << uint(i)
			front[r+1] = 1 << uint(i)
			cur = append(cur, r+1)
		}
	}
	for level := int16(1); len(cur) > 0; level++ {
		k := listCandidates(push, cur, cand, next)
		j := pullCandidates(pull, cand[:k], front, next, reached, dirw)
		if rows != nil {
			for _, p := range cand[:j] {
				for b := next[p]; b != 0; b &= b - 1 {
					rows[bits.TrailingZeros64(b)][p-1] = level
				}
			}
		}
		for _, u := range cur {
			front[u] = 0
		}
		front, next = next, front
		cur, cand = cand[:j], cur[:cap(cur)]
	}
	s.front, s.next = front, next
	s.cur, s.cand = cur[:cap(cur)], cand
}

// listCandidates writes the push neighbours of the frontier cur into
// cand, each once, and returns their count. A candidate is listed the
// first time its (all-zero) next word is seen and marked; slot 0 is
// pre-marked, so a missing channel never lists it.
func listCandidates(push, cur, cand []int32, next []uint64) int {
	next[0] = ^uint64(0)
	k := 0
	for _, u := range cur {
		for _, p := range push[geom.NumLinkDirs*(u-1) : geom.NumLinkDirs*u] {
			p++
			cand[k] = p
			if next[p] == 0 {
				k++
			}
			next[p] = ^uint64(0)
		}
	}
	next[0] = 0
	return k
}

// pullCandidates sets each candidate's next word to the roots newly
// reaching it — those reaching its pull neighbours at the previous level
// (front), less those that reached it before — and records them in
// reached and, when dirw is non-nil, in the direction words. The
// candidates reached by any root, compacted in place, are the next
// frontier; it returns their count.
func pullCandidates(pull, cand []int32, front, next, reached, dirw []uint64) int {
	j := 0
	for _, p := range cand {
		e := pull[geom.NumLinkDirs*(p-1) : geom.NumLinkDirs*p : geom.NumLinkDirs*p]
		f0, f1, f2, f3 := front[e[0]+1], front[e[1]+1], front[e[2]+1], front[e[3]+1]
		w := (f0 | f1 | f2 | f3) &^ reached[p]
		next[p] = w
		if w == 0 {
			continue
		}
		reached[p] |= w
		cand[j] = p
		j++
		if dirw != nil {
			d := dirw[geom.NumLinkDirs*(p-1) : geom.NumLinkDirs*p : geom.NumLinkDirs*p]
			d[0] |= w & f0
			d[1] |= w & f1
			d[2] |= w & f2
			d[3] |= w & f3
		}
	}
	return j
}

// spread[b] has byte i set to bit i of b: it moves eight roots' bits of
// one direction word into their eight mask bytes at once.
var spread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// writeMasks transposes a reverse pass's direction words into the
// candidate masks of roots' columns of t: column roots[i] takes bit i of
// each node's four words, bit d of its mask byte from word d. Eight
// nodes by eight roots at a time, the 8x8 byte block is transposed in
// registers so each column takes one 8-byte store.
func (s *bfsScratch) writeMasks(t *tables, roots []int32) {
	var masks [batchRoots][]uint8
	for i, r := range roots {
		masks[i] = t.cols[r].mask
	}
	nb := len(roots)
	// maskBytes returns node v's mask bytes for roots lo..lo+7, byte i for
	// root lo+i.
	maskBytes := func(v, lo int) uint64 {
		d := s.dirw[geom.NumLinkDirs*v : geom.NumLinkDirs*v+4 : geom.NumLinkDirs*v+4]
		sh := uint(lo)
		return spread[uint8(d[0]>>sh)] | spread[uint8(d[1]>>sh)]<<1 |
			spread[uint8(d[2]>>sh)]<<2 | spread[uint8(d[3]>>sh)]<<3
	}
	v := 0
	for ; v+8 <= s.n; v += 8 {
		for lo := 0; lo < nb; lo += 8 {
			var x [8]uint64 // x[k] byte i: node v+k, root lo+i
			for k := range x {
				x[k] = maskBytes(v+k, lo)
			}
			transpose8x8(&x) // now x[i] byte k
			for i := lo; i < min(lo+8, nb); i++ {
				binary.LittleEndian.PutUint64(masks[i][v:v+8], x[i-lo])
			}
		}
	}
	for ; v < s.n; v++ {
		for lo := 0; lo < nb; lo += 8 {
			m := maskBytes(v, lo)
			for i := lo; i < min(lo+8, nb); i++ {
				masks[i][v] = uint8(m)
				m >>= 8
			}
		}
	}
}

// transpose8x8 transposes the 8x8 byte matrix whose row k is x[k] (byte
// i = column i): swap the off-diagonal 1-byte cells of every 2x2 block,
// then the 2-byte cells of every 4x4 block, then the 4-byte halves.
func transpose8x8(x *[8]uint64) {
	swap := func(a, b *uint64, shift uint, mask uint64) {
		t := (*a>>shift ^ *b) & mask
		*b ^= t
		*a ^= t << shift
	}
	for k := 0; k < 8; k += 2 {
		swap(&x[k], &x[k+1], 8, 0x00ff00ff00ff00ff)
	}
	for _, k := range [4]int{0, 1, 4, 5} {
		swap(&x[k], &x[k+2], 16, 0x0000ffff0000ffff)
	}
	for k := 0; k < 4; k++ {
		swap(&x[k], &x[k+4], 32, 0x00000000ffffffff)
	}
}

// minimalColumns compiles the minimal columns of roots (at most
// batchRoots) into t with one reverse pass over g: the masks always, the
// distance rows iff keepDist. pred is predecessors(g).
func (s *bfsScratch) minimalColumns(t *tables, g *topology.FlatGraph, pred, roots []int32, keepDist bool) {
	var rows [][]int16
	if keepDist {
		rows = s.rows[:len(roots)]
		for i, r := range roots {
			rows[i] = t.cols[r].dist
		}
	}
	s.pass(pred, g.Next, g.Alive, roots, rows)
	s.writeMasks(t, roots)
}

// compileMinimal builds the minimal-routing tables of g into t's storage
// when t has g.N columns (a recompile's full fallback), else into a new
// table that keeps its distance rows iff keepDist. Destinations go
// through the kernel in tile-ordered batches strided across workers;
// a batch writes only its own columns, so the output is byte-identical
// at any worker count.
func compileMinimal(t *tables, g *topology.FlatGraph, keepDist bool, workers int) *tables {
	n := g.N
	if t == nil || t.n != n {
		w := 0
		if keepDist {
			w = n
		}
		t = newTables(n, w)
	}
	pred := predecessors(g, nil)
	roots := tileOrder(g.W, g.H)
	batches := (n + batchRoots - 1) / batchRoots
	fanOut(min(workers, batches), func(first, stride int) {
		s := newBFSScratch(n, true)
		for b := first; b < batches; b += stride {
			s.minimalColumns(t, g, pred, roots[b*batchRoots:min((b+1)*batchRoots, n)], keepDist)
		}
	})
	return t
}

const (
	phaseUp   = 0 // may still take up channels
	phaseDown = 1 // committed to down channels only
)

// compileUpDown builds the up*/down* tables into t's storage when t has
// g.N columns (a recompile's full fallback), else into a new table:
// distances on the (node, phase) state graph and the two phases'
// candidates packed into one mask byte, one column BFS per destination
// (compileUDColumn) strided across workers. Workers write disjoint
// columns, so the output is byte-identical at any worker count. level is
// the BFS-tree level array (-1 dead/unrouted) and upMask[v] has bit d set
// iff the channel v→d is an "up" channel; both come from the
// spanning-tree construction in updown.go.
func compileUpDown(t *tables, g *topology.FlatGraph, level []int, upMask []uint8, workers int) *tables {
	n := g.N
	if t == nil || t.n != n {
		t = newTables(n, 2*n)
	}
	fanOut(workers, func(first, stride int) {
		queue := make([]int32, 0, 2*n)
		for dst := first; dst < n; dst += stride {
			queue = compileUDColumn(g, level, upMask, dst, t.cols[dst], queue)
		}
	})
	return t
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

package routing

import "repro/internal/geom"

// Arena is a recycling allocator for Route hop storage. Spans are carved
// out of large backing blocks in power-of-two size classes and returned
// to a per-class free list, so a simulator that keeps routing packets in
// steady state stops allocating entirely: every Get after warm-up is
// served from the free list, and every block stays reachable for the
// arena's whole lifetime (spans handed out never dangle).
//
// An Arena is single-owner and not safe for concurrent use: each
// simulator owns one and steps on one goroutine.
type Arena struct {
	// block is the current carving block; spans are cut at block[used:].
	// Blocks are never reallocated or reused for anything else — a full
	// block is abandoned to the spans already carved from it.
	block []geom.Direction
	used  int
	// free[c] holds returned spans of capacity exactly classCap(c),
	// resliced to length zero.
	free  [arenaNumClasses][]Route
	stats ArenaStats
}

// ArenaStats counts arena traffic for the allocation-observability
// harness (Sim.PoolStats).
type ArenaStats struct {
	// Gets is the total number of spans handed out.
	Gets int64
	// Reuses is how many of those came from a free list (the remainder
	// were carved fresh; Gets == Reuses in a zero-allocation steady
	// state, except for oversized routes, which are plain allocations).
	Reuses int64
	// Puts is the number of spans returned.
	Puts int64
	// Blocks is the number of backing blocks allocated.
	Blocks int64
	// BlockBytes is the total backing storage, in bytes.
	BlockBytes int64
	// Oversize counts Gets beyond the largest size class, served by a
	// plain make and never recycled.
	Oversize int64
}

const (
	// arenaMinCap is the smallest span capacity handed out; tiny routes
	// share the class to keep free lists dense.
	arenaMinCap = 4
	// arenaNumClasses covers capacities 4, 8, ..., 4096. Routes longer
	// than 4096 hops (impossible on supported topologies) fall back to
	// the plain allocator.
	arenaNumClasses = 11
	// arenaBlockLen is the carving-block length; at least one maximal
	// class span fits per block.
	arenaBlockLen = 4096
)

// classFor returns the smallest size class holding n, or -1 if n exceeds
// the largest class.
func classFor(n int) int {
	c, size := 0, arenaMinCap
	for size < n {
		c++
		size <<= 1
		if c >= arenaNumClasses {
			return -1
		}
	}
	return c
}

func classCap(c int) int { return arenaMinCap << c }

// Get returns a length-zero span with capacity ≥ n, recycling a returned
// span when one is available. Spans of more than the largest class are
// plain allocations (counted, never recycled).
func (a *Arena) Get(n int) Route {
	a.stats.Gets++
	c := classFor(n)
	if c < 0 {
		a.stats.Oversize++
		return make(Route, 0, n)
	}
	if l := a.free[c]; len(l) > 0 {
		span := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[c] = l[:len(l)-1]
		a.stats.Reuses++
		return span
	}
	size := classCap(c)
	if a.used+size > len(a.block) {
		a.block = make([]geom.Direction, arenaBlockLen)
		a.used = 0
		a.stats.Blocks++
		a.stats.BlockBytes += int64(arenaBlockLen) * int64(sizeofDirection)
	}
	// Three-index slice: the span's capacity ends at its own boundary, so
	// an append beyond it can never scribble on a neighboring span.
	span := a.block[a.used : a.used : a.used+size]
	a.used += size
	return span
}

const sizeofDirection = 1 // geom.Direction is an int8

// Reserve allocates one carving block that holds n spans of Get(size)'s
// class, so the next n such Gets that miss the free list are carved
// without allocating. It replaces the current block, whose unused tail
// is abandoned; sizes beyond the largest class are not reserved.
func (a *Arena) Reserve(n, size int) {
	c := classFor(size)
	if c < 0 || n <= 0 {
		return
	}
	l := n * classCap(c)
	a.block = make([]geom.Direction, l)
	a.used = 0
	a.stats.Blocks++
	a.stats.BlockBytes += int64(l) * int64(sizeofDirection)
}

// Put returns a span obtained from Get to its free list. Passing a slice
// the arena did not hand out is safe only if its capacity matches a size
// class; anything smaller than the minimum class is silently dropped.
// The caller must not retain any alias of r after Put.
func (a *Arena) Put(r Route) {
	if cap(r) < arenaMinCap {
		return
	}
	// Find the largest class that fits entirely within cap(r). Arena
	// spans have exact class capacities, so this recovers their class.
	c := 0
	for c+1 < arenaNumClasses && classCap(c+1) <= cap(r) {
		c++
	}
	if classCap(c) > cap(r) {
		return
	}
	a.stats.Puts++
	a.free[c] = append(a.free[c], r[:0])
}

// Copy returns an arena span holding a copy of r.
func (a *Arena) Copy(r Route) Route {
	span := a.Get(len(r))[:len(r)]
	copy(span, r)
	return span
}

// Stats returns a snapshot of the arena counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

package network

// NIRing is the source-side injection FIFO: a growable ring buffer of
// queued packets. A `q = q[1:]` slice queue would pin the whole backing
// array (and every delivered packet in it) for as long as the queue
// stayed non-empty; PopFront nils the vacated slot immediately and the
// buffer is released outright once the queue drains, so a congestion
// burst cannot retain memory after it clears.
type NIRing struct {
	buf  []*Packet
	head int
	n    int
	// keep is the retain bound raised by reserve: a drained ring keeps
	// buffers up to max(ringRetainCap, keep). Sim.PrewarmPool points each
	// ring at a window of a scenario's high-water depth, and at
	// saturation rings oscillate between full and empty — without the
	// raised bound every drain would release the window and every refill
	// would re-run the grow chain, which is exactly the allocation churn
	// the prewarm exists to eliminate.
	keep int
}

// Len returns the number of queued packets.
func (q *NIRing) Len() int { return q.n }

// Front returns the oldest queued packet without removing it, or nil.
func (q *NIRing) Front() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// At returns the i-th queued packet (0 = front). It panics if i is out
// of range, matching slice semantics.
func (q *NIRing) At(i int) *Packet {
	if i < 0 || i >= q.n {
		panic("network: NIRing index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// Push appends p at the back.
func (q *NIRing) Push(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

// PopFront removes and returns the oldest packet. The vacated slot is
// nil'd so the packet is collectable as soon as the simulator drops its
// own references; an emptied queue keeps a small buffer for
// allocation-free refill and releases a large one (see release).
func (q *NIRing) PopFront() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.n == 0 {
		q.release()
	}
	return p
}

// Filter keeps only packets for which keep returns true, preserving
// order. Dropped slots are nil'd; a fully emptied queue is treated as a
// drain (see release).
func (q *NIRing) Filter(keep func(*Packet) bool) {
	w := 0
	for i := 0; i < q.n; i++ {
		p := q.buf[(q.head+i)%len(q.buf)]
		if keep(p) {
			q.buf[(q.head+w)%len(q.buf)] = p
			w++
		}
	}
	for i := w; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = nil
	}
	q.n = w
	if q.n == 0 {
		q.release()
	}
}

// ringRetainCap bounds the buffer kept across a full drain. Steady-state
// traffic drains NI queues every few cycles, and releasing the buffer
// each time meant reallocating on every refill; buffers up to this size
// are kept (slots already nil'd, so no packets are pinned). Anything
// larger is the tail of a congestion burst and is released outright so
// the burst cannot retain memory after it clears.
const ringRetainCap = 64

// release resets a drained queue, keeping a small backing buffer (or a
// reserved one up to the reserve bound).
func (q *NIRing) release() {
	if len(q.buf) > max(ringRetainCap, q.keep) {
		q.buf = nil
	}
	q.head = 0
}

// Cap exposes the backing-buffer capacity (for the memory-release test).
func (q *NIRing) Cap() int { return len(q.buf) }

// reserve makes win, a window of one buffer Sim.PrewarmPool shares
// among all rings, the backing buffer unless the current one is at least
// as long, and raises the drain-time retain bound to len(win) so the
// reserved buffer survives fill/drain oscillation.
func (q *NIRing) reserve(win []*Packet) {
	if len(win) > len(q.buf) {
		q.adopt(win)
	}
	q.keep = max(q.keep, len(win))
}

func (q *NIRing) grow() { q.adopt(make([]*Packet, max(8, 2*len(q.buf)))) }

// adopt moves the queued packets, in order, to the front of buf (longer
// than the current buffer) and makes it the backing buffer.
func (q *NIRing) adopt(buf []*Packet) {
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

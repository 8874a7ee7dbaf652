package network

import (
	"fmt"
	"testing"
)

func ringPacket(id int) *Packet { return &Packet{ID: int64(id)} }

func TestRingFIFOOrder(t *testing.T) {
	var q NIRing
	for i := 0; i < 100; i++ {
		q.Push(ringPacket(i))
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.Front(); got.ID != int64(i) {
			t.Fatalf("Front = %d, want %d", got.ID, i)
		}
		if got := q.PopFront(); got.ID != int64(i) {
			t.Fatalf("PopFront = %d, want %d", got.ID, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestRingInterleavedPushPopWraps(t *testing.T) {
	// Push/pop in a pattern that forces head to wrap around the buffer
	// many times without growing it.
	var q NIRing
	next, want := 0, 0
	for i := 0; i < 10; i++ {
		q.Push(ringPacket(next))
		next++
	}
	capBefore := q.Cap()
	for round := 0; round < 200; round++ {
		q.Push(ringPacket(next))
		next++
		if got := q.PopFront(); got.ID != int64(want) {
			t.Fatalf("round %d: PopFront = %d, want %d", round, got.ID, want)
		}
		want++
	}
	if q.Cap() != capBefore {
		t.Fatalf("steady-state interleave grew the buffer: %d -> %d", capBefore, q.Cap())
	}
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).ID; got != int64(want+i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, want+i)
		}
	}
}

// TestRingReleasesMemory pins the fix for the old `q = q[1:]` NI queue:
// popped slots must be nil'd (no packet kept reachable behind the head)
// and a fully drained ring must release its buffer entirely.
func TestRingReleasesMemory(t *testing.T) {
	var q NIRing
	for i := 0; i < 1000; i++ {
		q.Push(ringPacket(i))
	}
	for i := 0; i < 999; i++ {
		q.PopFront()
	}
	// Every slot except the single live one must be nil.
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d non-nil slots retained for 1 live packet", live)
	}
	q.PopFront()
	if q.Cap() != 0 {
		t.Fatalf("drained ring retains %d-slot buffer", q.Cap())
	}
	// And it is reusable afterwards.
	q.Push(ringPacket(7))
	if q.Front().ID != 7 {
		t.Fatal("ring unusable after release")
	}
}

func TestRingFilter(t *testing.T) {
	var q NIRing
	// Pop a few first so the live region is offset (filter must handle
	// wrapped layouts).
	for i := -4; i < 20; i++ {
		q.Push(ringPacket(i))
	}
	for i := 0; i < 4; i++ {
		q.PopFront()
	}
	q.Filter(func(p *Packet) bool { return p.ID%2 == 0 })
	if q.Len() != 10 {
		t.Fatalf("Len after filter = %d, want 10", q.Len())
	}
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).ID; got != int64(2*i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, 2*i)
		}
	}
	// Dropped and tail slots are nil'd.
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("%d non-nil slots for %d live packets after Filter", live, q.Len())
	}
	// Filtering everything away keeps the (small) buffer for refill but
	// no packets: every slot must be nil.
	q.Filter(func(*Packet) bool { return false })
	if q.Len() != 0 {
		t.Fatalf("empty filter left len=%d", q.Len())
	}
	if q.Cap() == 0 || q.Cap() > ringRetainCap {
		t.Fatalf("empty filter should retain a small buffer, got cap=%d", q.Cap())
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a packet after filter-all", i)
		}
	}
}

// TestRingDrainRetainsSmallCapacity pins the refill path: a drained
// ring keeps a small buffer (slots nil'd) so the steady-state
// fill/drain cycle of an NI queue never reallocates.
func TestRingDrainRetainsSmallCapacity(t *testing.T) {
	var q NIRing
	for i := 0; i < 32; i++ {
		q.Push(ringPacket(i))
	}
	capBefore := q.Cap()
	for q.Len() > 0 {
		q.PopFront()
	}
	if q.Cap() != capBefore {
		t.Fatalf("drain changed cap %d -> %d (want retained: %d <= ringRetainCap)",
			capBefore, q.Cap(), capBefore)
	}
	// Refill within the retained capacity must not allocate.
	ps := make([]*Packet, 32)
	for i := range ps {
		ps[i] = ringPacket(i)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range ps {
			q.Push(p)
		}
		for q.Len() > 0 {
			q.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("drain/refill cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestRingReserveSurvivesDrain pins the prewarm contract: a ring
// reserved above ringRetainCap keeps its buffer across a full drain
// (saturation oscillates rings between full and empty, and releasing on
// each drain would re-run the grow chain on every refill), while an
// unreserved ring of the same size still releases.
func TestRingReserveSurvivesDrain(t *testing.T) {
	var q NIRing
	q.reserve(make([]*Packet, 512))
	for i := 0; i < 400; i++ {
		q.Push(ringPacket(i))
	}
	for q.Len() > 0 {
		q.PopFront()
	}
	if q.Cap() != 512 {
		t.Fatalf("reserved ring released on drain: cap %d, want 512", q.Cap())
	}
	ps := make([]*Packet, 400)
	for i := range ps {
		ps[i] = ringPacket(i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range ps {
			q.Push(p)
		}
		for q.Len() > 0 {
			q.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("reserved fill/drain cycle allocates %.1f times per run, want 0", allocs)
	}
	var u NIRing
	for i := 0; i < 400; i++ {
		u.Push(ringPacket(i))
	}
	for u.Len() > 0 {
		u.PopFront()
	}
	if u.Cap() != 0 {
		t.Fatalf("unreserved ring retained %d-slot buffer after drain", u.Cap())
	}
}

func TestRingAtPanicsOutOfRange(t *testing.T) {
	var q NIRing
	q.Push(ringPacket(0))
	for _, i := range []int{-1, 1, 5} {
		i := i
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) on len-1 ring did not panic", i)
				}
			}()
			q.At(i)
		})
	}
}

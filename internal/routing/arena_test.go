package routing

import (
	"testing"

	"repro/internal/geom"
)

func TestArenaClassSizing(t *testing.T) {
	var a Arena
	cases := []struct{ n, wantCap int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
		{100, 128}, {4096, 4096},
	}
	for _, c := range cases {
		span := a.Get(c.n)
		if len(span) != 0 {
			t.Errorf("Get(%d): len = %d, want 0", c.n, len(span))
		}
		if cap(span) != c.wantCap {
			t.Errorf("Get(%d): cap = %d, want %d", c.n, cap(span), c.wantCap)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	var a Arena
	span := a.Get(10)[:10]
	for i := range span {
		span[i] = geom.North
	}
	a.Put(span)
	got := a.Get(10)
	// Same class (16) must come back off the free list, not fresh carving.
	if cap(got) != cap(span) {
		t.Fatalf("recycled span cap = %d, want %d", cap(got), cap(span))
	}
	if len(got) != 0 {
		t.Fatalf("recycled span len = %d, want 0", len(got))
	}
	st := a.Stats()
	if st.Gets != 2 || st.Reuses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Reuses=1 Puts=1", st)
	}
	// Identity: appending into the recycled span lands in the old storage.
	got = append(got, geom.South)
	if &got[0] != &span[0] {
		t.Fatal("recycled span does not share the returned span's storage")
	}
}

func TestArenaOversize(t *testing.T) {
	var a Arena
	span := a.Get(5000)
	if cap(span) < 5000 {
		t.Fatalf("oversize cap = %d, want >= 5000", cap(span))
	}
	st := a.Stats()
	if st.Oversize != 1 {
		t.Fatalf("Oversize = %d, want 1", st.Oversize)
	}
	if st.Blocks != 0 {
		t.Fatalf("oversize Get carved a block: Blocks = %d", st.Blocks)
	}
}

func TestArenaPutForeignSlices(t *testing.T) {
	var a Arena
	// Below the minimum class: silently dropped.
	a.Put(make(Route, 0, 3))
	if st := a.Stats(); st.Puts != 0 {
		t.Fatalf("Put of cap-3 slice counted: Puts = %d", st.Puts)
	}
	// Exact class capacity: accepted and reusable.
	a.Put(make(Route, 0, 8))
	got := a.Get(7)
	if st := a.Stats(); st.Reuses != 1 {
		t.Fatalf("Put of cap-8 slice not reused: %+v", st)
	}
	if cap(got) != 8 {
		t.Fatalf("reused foreign span cap = %d, want 8", cap(got))
	}
}

func TestArenaCopy(t *testing.T) {
	var a Arena
	src := Route{geom.North, geom.East, geom.East}
	dup := a.Copy(src)
	if len(dup) != len(src) {
		t.Fatalf("Copy len = %d, want %d", len(dup), len(src))
	}
	for i := range src {
		if dup[i] != src[i] {
			t.Fatalf("Copy[%d] = %v, want %v", i, dup[i], src[i])
		}
	}
	src[0] = geom.West
	if dup[0] != geom.North {
		t.Fatal("Copy aliases its source")
	}
}

// TestArenaSpanIsolation checks the three-index carve: filling one span
// to its full capacity must not scribble on the next span carved from
// the same block.
func TestArenaSpanIsolation(t *testing.T) {
	var a Arena
	x := a.Get(4)
	y := a.Get(4)[:4]
	for i := range y {
		y[i] = geom.South
	}
	x = x[:cap(x)]
	for i := range x {
		x[i] = geom.North
	}
	// An append at capacity must reallocate, not spill into y.
	x = append(x, geom.North)
	for i := range y {
		if y[i] != geom.South {
			t.Fatalf("neighbor span corrupted at %d: %v", i, y[i])
		}
	}
	if a.Stats().Blocks != 1 {
		t.Fatalf("Blocks = %d, want 1 (both spans from one block)", a.Stats().Blocks)
	}
}

// TestArenaReserve: a reservation of n spans serves n same-class Gets
// from one block without allocating; the next Get carves a new block.
func TestArenaReserve(t *testing.T) {
	var a Arena
	const n = 64
	a.Reserve(2*n, 10)
	if st := a.Stats(); st.Blocks != 1 || st.BlockBytes != 2*n*16 {
		t.Fatalf("after Reserve: %+v, want one block of %d bytes", st, 2*n*16)
	}
	// AllocsPerRun runs the body twice: 2n Gets in all.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			if span := a.Get(9); cap(span) != 16 {
				t.Fatalf("reserved span cap = %d, want 16", cap(span))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reserved Gets allocated %.0f objects, want 0", allocs)
	}
	if st := a.Stats(); st.Blocks != 1 {
		t.Fatalf("reserved Gets carved %d blocks, want 1", st.Blocks)
	}
	a.Get(9)
	if st := a.Stats(); st.Blocks != 2 {
		t.Fatalf("Get past the reservation: Blocks = %d, want 2", st.Blocks)
	}
	var b Arena
	b.Reserve(8, 5000)
	if st := b.Stats(); st.Blocks != 0 {
		t.Fatalf("oversize Reserve allocated a block: %+v", st)
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// pathOf packs turns into a Path, head first.
func pathOf(turns ...geom.Turn) Path {
	var p Path
	for _, t := range turns {
		p = p.Push(t)
	}
	return p
}

// TestPathMatchesSlice checks Push, At and Pop against a []geom.Turn
// reference for random turn sequences of every length up to PathCap,
// which crosses the 32-turn boundary between the two words.
func TestPathMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= PathCap; n++ {
		for trial := 0; trial < 8; trial++ {
			ref := make([]geom.Turn, n)
			var p Path
			for i := range ref {
				ref[i] = geom.Turn(rng.Intn(3))
				p = p.Push(ref[i])
			}
			for len(ref) > 0 {
				if p.Len() != len(ref) {
					t.Fatalf("n=%d: Len %d, want %d", n, p.Len(), len(ref))
				}
				for i, want := range ref {
					if got := p.At(i); got != want {
						t.Fatalf("n=%d len=%d: At(%d) = %v, want %v", n, len(ref), i, got, want)
					}
				}
				p, ref = p.Pop(), ref[1:]
			}
			if p != (Path{}) {
				t.Fatalf("n=%d: popped to empty, got %+v, want the zero Path", n, p)
			}
		}
	}
}

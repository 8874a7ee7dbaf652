package topology

import (
	"testing"

	"repro/internal/geom"
)

// TestFlattenMatchesTopology: the CSR-style snapshot must agree with the
// live accessors on liveness, usable channels, and geometric adjacency
// for every (node, direction).
func TestFlattenMatchesTopology(t *testing.T) {
	for name, topo := range map[string]*Topology{
		"mesh":     NewMesh(6, 6),
		"links":    RandomIrregular(8, 8, LinkFaults, 20, 13),
		"routers":  RandomIrregular(8, 8, RouterFaults, 9, 13),
		"tiny":     NewMesh(1, 1),
		"degraded": RandomIrregular(5, 5, LinkFaults, 24, 1),
	} {
		t.Run(name, func(t *testing.T) {
			g := topo.Flatten()
			if g.N != topo.NumNodes() || g.W != topo.Width() || g.H != topo.Height() {
				t.Fatalf("dims: got %dx%d (N=%d), want %dx%d (N=%d)",
					g.W, g.H, g.N, topo.Width(), topo.Height(), topo.NumNodes())
			}
			for id := 0; id < g.N; id++ {
				n := geom.NodeID(id)
				if g.Alive[id] != topo.RouterAlive(n) {
					t.Fatalf("Alive[%v] = %v, topology says %v", n, g.Alive[id], topo.RouterAlive(n))
				}
				for i, d := range geom.LinkDirs {
					geo := topo.Neighbor(n, d)
					adj := g.Adj[geom.NumLinkDirs*id+i]
					if (geo == geom.InvalidNode) != (adj < 0) || (adj >= 0 && geom.NodeID(adj) != geo) {
						t.Fatalf("Adj[%v,%v] = %d, Neighbor = %v", n, d, adj, geo)
					}
					next := g.Next[geom.NumLinkDirs*id+i]
					hasLink := topo.HasLink(n, d)
					if hasLink != (next >= 0) {
						t.Fatalf("Next[%v,%v] = %d, HasLink = %v", n, d, next, hasLink)
					}
					if hasLink && geom.NodeID(next) != geo {
						t.Fatalf("Next[%v,%v] = %d, Neighbor = %v", n, d, next, geo)
					}
					if nb := g.NeighborOf(n, d); (hasLink && nb != geo) || (!hasLink && nb != geom.InvalidNode) {
						t.Fatalf("NeighborOf(%v,%v) = %v", n, d, nb)
					}
				}
			}
			if g.Bytes() <= 0 {
				t.Fatal("Bytes() reported nothing")
			}
		})
	}
}

// TestFingerprint: equal content (clones, identically resampled
// topologies) fingerprints equal; any liveness mutation changes it; the
// rendering is short hex.
func TestFingerprint(t *testing.T) {
	a := RandomIrregular(8, 8, LinkFaults, 15, 99)
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	if a.Fingerprint() != RandomIrregular(8, 8, LinkFaults, 15, 99).Fingerprint() {
		t.Fatal("identically sampled topology fingerprint differs")
	}
	if a.Fingerprint() == RandomIrregular(8, 8, LinkFaults, 15, 100).Fingerprint() {
		t.Fatal("different sample collided")
	}
	if a.Fingerprint() == RandomIrregular(8, 8, RouterFaults, 15, 99).Fingerprint() {
		t.Fatal("different fault kind collided")
	}

	link := a.Clone()
	link.DisableLink(link.AliveRouters()[0], firstUsableDir(link))
	if link.Fingerprint() == a.Fingerprint() {
		t.Fatal("link fault did not change the fingerprint")
	}
	router := a.Clone()
	router.DisableRouter(router.AliveRouters()[0])
	if router.Fingerprint() == a.Fingerprint() {
		t.Fatal("router fault did not change the fingerprint")
	}
	// Dimensions participate: a 4x2 and a 2x4 mesh have the same byte
	// count but different shapes.
	if NewMesh(4, 2).Fingerprint() == NewMesh(2, 4).Fingerprint() {
		t.Fatal("transposed meshes collided")
	}

	if s := a.Fingerprint().String(); len(s) != 16 {
		t.Fatalf("fingerprint rendering %q, want 16 hex chars", s)
	}
}

func firstUsableDir(t *Topology) geom.Direction {
	n := t.AliveRouters()[0]
	for _, d := range geom.LinkDirs {
		if t.HasLink(n, d) {
			return d
		}
	}
	panic("no usable link")
}

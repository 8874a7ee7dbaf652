package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/geom"
)

// FlatGraph is an immutable CSR-style snapshot of a Topology's usable
// channel structure: every per-hop question the routing hot path asks
// (HasLink, Neighbor, RouterAlive) becomes a single array load with no
// coordinate arithmetic or multi-field branching. Routing compilation
// (internal/routing) walks FlatGraphs exclusively, so a compiled table
// can never observe a topology mutation made after the snapshot.
type FlatGraph struct {
	// W, H are the underlying mesh dimensions; N = W*H.
	W, H, N int
	// Alive[n] reports router n usable.
	Alive []bool
	// Next[4*n+d] is the neighbor reached over the usable directed
	// channel n→d, or -1 when the channel is dead, off-mesh, or either
	// endpoint router is down (exactly Topology.HasLink semantics).
	Next []int32
	// Adj[4*n+d] is the geometric mesh neighbor of n in direction d
	// regardless of faults, or -1 off-mesh (Topology.Neighbor semantics).
	Adj []int32
}

// Flatten snapshots the topology's current state into a FlatGraph.
// Subsequent mutations of t are not reflected in the snapshot.
func (t *Topology) Flatten() *FlatGraph {
	n := t.NumNodes()
	g := &FlatGraph{
		W: t.width, H: t.height, N: n,
		Alive: append([]bool(nil), t.routerAlive...),
		Next:  make([]int32, geom.NumLinkDirs*n),
		Adj:   make([]int32, geom.NumLinkDirs*n),
	}
	for id := 0; id < n; id++ {
		for _, d := range geom.LinkDirs {
			i := geom.NumLinkDirs*id + int(d)
			g.Next[i], g.Adj[i] = -1, -1
			nb := t.Neighbor(geom.NodeID(id), d)
			if nb == geom.InvalidNode {
				continue
			}
			g.Adj[i] = int32(nb)
			if t.HasLink(geom.NodeID(id), d) {
				g.Next[i] = int32(nb)
			}
		}
	}
	return g
}

// NeighborOf returns the usable-channel neighbor of n in direction d, or
// InvalidNode (mirrors Topology.HasLink + Neighbor on the snapshot).
func (g *FlatGraph) NeighborOf(n geom.NodeID, d geom.Direction) geom.NodeID {
	return geom.NodeID(g.Next[geom.NumLinkDirs*int(n)+int(d)])
}

// Bytes returns the heap footprint of the snapshot's arrays, for cache
// accounting.
func (g *FlatGraph) Bytes() int64 {
	return int64(len(g.Alive)) + 4*int64(len(g.Next)) + 4*int64(len(g.Adj))
}

// FlatDelta describes the usable-channel and liveness differences between
// two FlatGraph snapshots of the same mesh. Channel entries are directed
// channel indices (geom.NumLinkDirs*node + dir); the geometric head of a
// channel is Adj[idx], which is identical in both snapshots (Adj depends
// only on the mesh dimensions). The routing package's incremental
// recompiler consumes deltas to repair only the table columns an epoch
// actually perturbed.
type FlatDelta struct {
	// Removed lists channels usable in old but not in cur.
	Removed []int32
	// Added lists channels usable in cur but not in old.
	Added []int32
	// AliveChanged lists routers whose liveness flipped.
	AliveChanged []int32
}

// Empty reports a delta with no differences.
func (d *FlatDelta) Empty() bool {
	return len(d.Removed) == 0 && len(d.Added) == 0 && len(d.AliveChanged) == 0
}

// Size is the total number of flipped channels and routers.
func (d *FlatDelta) Size() int {
	return len(d.Removed) + len(d.Added) + len(d.AliveChanged)
}

// DiffFlat computes the delta taking old to cur. ok=false when the
// snapshots are not comparable (nil or different mesh dimensions), in
// which case incremental consumers must fall back to a full rebuild.
func DiffFlat(old, cur *FlatGraph) (FlatDelta, bool) {
	if old == nil || cur == nil || old.W != cur.W || old.H != cur.H {
		return FlatDelta{}, false
	}
	var d FlatDelta
	for i := range cur.Next {
		was, is := old.Next[i] >= 0, cur.Next[i] >= 0
		switch {
		case was && !is:
			d.Removed = append(d.Removed, int32(i))
		case !was && is:
			d.Added = append(d.Added, int32(i))
		}
	}
	for n := range cur.Alive {
		if old.Alive[n] != cur.Alive[n] {
			d.AliveChanged = append(d.AliveChanged, int32(n))
		}
	}
	return d, true
}

// Fingerprint is a content hash of a topology's full connectivity state
// (dimensions, router liveness, directed link liveness). Two topologies
// with equal fingerprints are behaviorally identical for routing, so the
// fingerprint content-addresses compiled routing tables across sweep
// points, topology clones, and processes.
type Fingerprint [sha256.Size]byte

// String returns a short hex prefix for logs.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// Fingerprint hashes the topology's current connectivity state.
func (t *Topology) Fingerprint() Fingerprint {
	h := sha256.New()
	var hdr [16]byte
	copy(hdr[:], "sb-topology\x00")
	binary.LittleEndian.PutUint16(hdr[12:], uint16(t.width))
	binary.LittleEndian.PutUint16(hdr[14:], uint16(t.height))
	h.Write(hdr[:])
	// One byte per router: liveness in bit 7, the four directed outgoing
	// link-alive bits below. linkAlive is the raw per-direction state, so
	// unidirectional faults hash differently from bidirectional ones.
	buf := make([]byte, t.NumNodes())
	for id := range buf {
		var b uint8
		if t.routerAlive[id] {
			b = 1 << 7
		}
		for _, d := range geom.LinkDirs {
			if t.linkAlive[id][d] {
				b |= 1 << uint(d)
			}
		}
		buf[id] = b
	}
	h.Write(buf)
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

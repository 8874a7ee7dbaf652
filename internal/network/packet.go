package network

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/routing"
)

// Packet is the unit of transfer. With virtual cut-through and
// packet-sized VCs, buffer dependencies are packet-granular (paper
// Section IV-A); flit count only affects serialization latency and link
// bandwidth.
type Packet struct {
	ID   int64
	Src  geom.NodeID
	Dst  geom.NodeID
	Vnet int
	// Len is the packet length in flits (1 = control, 5 = data by
	// default).
	Len int
	// Route is the source route: one output port per hop. Hop counts how
	// many hops have been granted so far.
	Route routing.Route
	Hop   int
	// Escaped marks a packet that has moved to the escape class
	// (escclass.go): it follows the class's tree and may enter only
	// reserved VCs. Set by Sim.PromoteEscape — the escape-VC baseline
	// calls it on timeout — or before the packet is placed; writing it on
	// a buffered packet bypasses the request vectors.
	Escaped bool

	// CreatedAt is the cycle the packet entered the NI queue; InjectedAt
	// the cycle it entered the network (-1 while queued); DeliveredAt the
	// cycle its tail reached the destination NI (-1 until then).
	CreatedAt   int64
	InjectedAt  int64
	DeliveredAt int64

	// gen is the recycling generation: bumped every time the owning
	// Sim's pool reclaims this packet, so a PacketRef taken before the
	// release can detect that the pointer now names a different packet.
	gen uint32
	// routeOwned marks Route as a span of the owning Sim's route arena
	// (returned to it on the next SetRoute/recycle). Packets built
	// outside the pool — refmodel runs, hand-built test packets — carry
	// plain heap routes and leave this false.
	routeOwned bool
}

// Gen returns the packet's recycling generation (see PacketRef).
func (p *Packet) Gen() uint32 { return p.gen }

// PacketRef is a use-after-release-checked reference to a pooled packet:
// it remembers the generation at capture time, and Get refuses to return
// the pointer once the pool has recycled the packet — even if the same
// memory is already hosting a new one. Holders that outlive a packet's
// delivery (timers, watchdogs) should hold a PacketRef, not a bare
// *Packet.
type PacketRef struct {
	p   *Packet
	gen uint32
}

// Ref captures a generation-checked reference to p.
func (p *Packet) Ref() PacketRef {
	if p == nil {
		return PacketRef{}
	}
	return PacketRef{p: p, gen: p.gen}
}

// Get returns the referenced packet, or ok=false if the reference is
// empty or the packet has since been recycled.
func (r PacketRef) Get() (*Packet, bool) {
	if r.p == nil || r.p.gen != r.gen {
		return nil, false
	}
	return r.p, true
}

// Valid reports whether the reference still names the original packet.
func (r PacketRef) Valid() bool {
	return r.p != nil && r.p.gen == r.gen
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d(%v→%v vnet%d len%d hop%d)", p.ID, p.Src, p.Dst, p.Vnet, p.Len, p.Hop)
}

// Latency returns total latency (queue + network), valid after delivery.
func (p *Packet) Latency() int64 { return p.DeliveredAt - p.CreatedAt }

// NetLatency returns in-network latency, valid after delivery.
func (p *Packet) NetLatency() int64 { return p.DeliveredAt - p.InjectedAt }

// VC is one virtual channel: a packet-sized buffer.
type VC struct {
	Pkt *Packet
	// ReadyAt is the cycle from which the resident packet's head may
	// compete in switch allocation (covers router+link arrival delay).
	ReadyAt int64
	// FreeAt is the cycle from which an emptied VC may be reallocated
	// (covers the tail streaming out).
	FreeAt int64
}

// Empty reports whether the VC can accept a new packet at cycle now.
func (v *VC) Empty(now int64) bool { return v.Pkt == nil && v.FreeAt <= now }

// HeadReady reports whether the VC holds a packet whose head may compete
// in switch allocation at cycle now.
func (v *VC) HeadReady(now int64) bool { return v.Pkt != nil && v.ReadyAt <= now }

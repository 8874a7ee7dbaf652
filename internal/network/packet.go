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
	// many hops have been granted so far. The buffer belongs to the
	// packet and stays with it when the pool recycles it; only SetRoute
	// and Reroute write it.
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

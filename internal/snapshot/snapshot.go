// Package snapshot serializes a simulator's observable state to JSON for
// post-mortem analysis, bug reports, and regression goldens. A snapshot
// is diagnostic — it captures where every packet is and what it wants,
// fences, bubbles, and counters — but is not a resumable checkpoint (the
// simulator re-runs deterministically from its seed instead).
package snapshot

import (
	"encoding/json"
	"io"
	"math/bits"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
)

// PacketState is one buffered packet's position and intent.
type PacketState struct {
	ID     int64  `json:"id"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Vnet   int    `json:"vnet"`
	Len    int    `json:"len"`
	Hop    int    `json:"hop"`
	Router int    `json:"router"`
	InPort string `json:"in_port"`
	Slot   int    `json:"slot"` // -1 for the static bubble
	Wants  string `json:"wants"`
}

// FenceState is one active is_deadlock restriction.
type FenceState struct {
	Router int    `json:"router"`
	In     string `json:"in"`
	Out    string `json:"out"`
	Src    int    `json:"src"`
}

// BubbleState describes a static-bubble router's runtime state.
type BubbleState struct {
	Router   int    `json:"router"`
	Active   bool   `json:"active"`
	InPort   string `json:"in_port,omitempty"`
	Occupant int64  `json:"occupant,omitempty"` // packet id, 0 if empty
	FSM      string `json:"fsm,omitempty"`
}

// State is the full diagnostic snapshot.
type State struct {
	Cycle        int64         `json:"cycle"`
	Width        int           `json:"width"`
	Height       int           `json:"height"`
	AliveRouters int           `json:"alive_routers"`
	AliveLinks   int           `json:"alive_links"`
	InFlight     int64         `json:"in_flight"`
	Queued       int64         `json:"queued"`
	Stats        network.Stats `json:"stats"`
	Packets      []PacketState `json:"packets,omitempty"`
	Fences       []FenceState  `json:"fences,omitempty"`
	Bubbles      []BubbleState `json:"bubbles,omitempty"`
}

// Capture builds the snapshot of s; ctrl may be nil (FSM states omitted).
func Capture(s *network.Sim, ctrl *core.Controller) State {
	st := State{
		Cycle:        s.Now,
		Width:        s.Topo.Width(),
		Height:       s.Topo.Height(),
		AliveRouters: s.Topo.AliveRouterCount(),
		AliveLinks:   s.Topo.AliveLinkCount(),
		InFlight:     s.InFlight(),
		Queued:       s.QueuedPackets(),
		Stats:        s.Stats,
	}
	for id := range s.Routers {
		r := &s.Routers[id]
		node := geom.NodeID(id)
		for w := s.OccupancyMirror(node); w != 0; w &= w - 1 {
			ci := bits.TrailingZeros64(w)
			port, slot := geom.Direction(ci/network.SlotsPerPort), ci%network.SlotsPerPort
			if ci == network.BubbleIndex {
				port, slot = r.Bubble.InPort, -1
			}
			st.Packets = append(st.Packets, packetState(s, r.Buf(ci).Pkt, node, port, slot))
		}
		if r.Fence.Active {
			st.Fences = append(st.Fences, FenceState{
				Router: id, In: r.Fence.In.String(), Out: r.Fence.Out.String(),
				Src: int(r.Fence.SrcID),
			})
		}
		if r.Bubble.Present {
			b := BubbleState{Router: id, Active: r.Bubble.Active}
			occupant := r.Buf(network.BubbleIndex).Pkt
			if r.Bubble.Active || occupant != nil {
				b.InPort = r.Bubble.InPort.String()
			}
			if occupant != nil {
				b.Occupant = occupant.ID
			}
			if ctrl != nil {
				b.FSM = ctrl.FSMState(node).String()
			}
			st.Bubbles = append(st.Bubbles, b)
		}
	}
	return st
}

func packetState(s *network.Sim, p *network.Packet, at geom.NodeID, port geom.Direction, slot int) PacketState {
	return PacketState{
		ID: p.ID, Src: int(p.Src), Dst: int(p.Dst), Vnet: p.Vnet, Len: p.Len,
		Hop: p.Hop, Router: int(at), InPort: port.String(), Slot: slot,
		Wants: s.OutputOf(p, at).String(),
	}
}

// Write serializes the snapshot as indented JSON with a trailing newline.
func Write(w io.Writer, st State) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

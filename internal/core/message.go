package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/network"
)

// MsgType identifies one of the four bufferless control messages of the
// recovery protocol (paper Section IV).
type MsgType int8

// The four control messages. Priority at an output mux is
// check_probe > disable/enable > probe (> flit), per Section IV-C.
const (
	MsgProbe MsgType = iota
	MsgDisable
	MsgEnable
	MsgCheckProbe
)

func (t MsgType) String() string {
	switch t {
	case MsgProbe:
		return "probe"
	case MsgDisable:
		return "disable"
	case MsgEnable:
		return "enable"
	case MsgCheckProbe:
		return "check_probe"
	}
	return fmt.Sprintf("MsgType(%d)", int8(t))
}

// linkClass maps a message type to its link-utilization class.
func (t MsgType) linkClass() network.LinkClass {
	switch t {
	case MsgProbe:
		return network.ClassProbe
	case MsgDisable:
		return network.ClassDisable
	case MsgEnable:
		return network.ClassEnable
	default:
		return network.ClassCheckProbe
	}
}

// priority returns the output-mux priority of the message type (higher
// wins).
func (t MsgType) priority() int {
	switch t {
	case MsgCheckProbe:
		return 3
	case MsgDisable, MsgEnable:
		return 2
	default:
		return 1
	}
}

// Message is one in-flight control message. Control messages are
// bufferless: each hop costs one cycle of router processing plus one
// cycle of link traversal, and a message that loses output arbitration is
// dropped (the originating FSM's timeout handles retransmission).
type Message struct {
	Type MsgType
	// Src is the static-bubble router that originated the message;
	// node-id ties at an output port are broken in favor of higher Src.
	Src geom.NodeID
	// Vnet is the message class of the dependency chain under
	// investigation (buffer dependencies are per-vnet).
	Vnet int
	// At is the router that will process the message at cycle NextAt.
	At geom.NodeID
	// Heading is the direction traveled to arrive at At (the message
	// entered on input port Heading.Opposite()).
	Heading geom.Direction
	// Turns is the 2-bit-per-hop L/R/S path: accumulated by probes,
	// consumed front-first by disable/enable/check_probe.
	Turns Path
	// NextAt is the cycle the message is processed at At.
	NextAt int64
	// Seq is the originator's recovery-round number. Stale messages from
	// an earlier round (possible after an S_ENABLE retransmission) must
	// not complete a later round, so the FSM only accepts returns whose
	// Seq matches its current round.
	Seq int64
	// OutPort is the output port the originating probe was first sent
	// from; carried through forks so that a return latches the correct
	// IO-priority output even after the detection pointer moved on.
	OutPort geom.Direction
}

func (m Message) String() string {
	return fmt.Sprintf("%v(src=%v at=%v heading=%v turns=%d)", m.Type, m.Src, m.At, m.Heading, m.Turns.Len())
}

// inPort returns the input port the message arrived on.
func (m Message) inPort() geom.Direction { return m.Heading.Opposite() }

// PathCap is the most turns a Path holds: two 64-bit words at 2 bits a
// turn. Section IV-B fits 59 turns beside the header of a 128-bit link
// message, the default Options.MaxTurns.
const PathCap = 64

// Path is a control message's L/R/S turn path, packed 2 bits a turn with
// the head turn in the low bits of w[0]. It is a value: copying a message
// copies its path, so a fork or a duplicate never shares turn storage.
// Bits at and beyond n are zero.
type Path struct {
	w [2]uint64
	n uint8
}

// Len returns the number of turns on the path.
func (p Path) Len() int { return int(p.n) }

// At returns turn i, counted from the head.
func (p Path) At(i int) geom.Turn { return geom.Turn(p.w[i>>5] >> (2 * uint(i&31)) & 3) }

// Push returns p with t appended at the tail; p must hold fewer than
// PathCap turns.
func (p Path) Push(t geom.Turn) Path {
	i := int(p.n)
	p.w[i>>5] |= uint64(t) << (2 * uint(i&31))
	p.n++
	return p
}

// Pop returns p without its head turn; p must not be empty.
func (p Path) Pop() Path {
	p.w[0] = p.w[0]>>2 | p.w[1]<<62
	p.w[1] >>= 2
	p.n--
	return p
}

package core

import "repro/internal/geom"

// Verdict is a Perturber's decision about one control-message
// transmission. The zero value delivers the message untouched.
type Verdict struct {
	// Drop loses the message in flight (the originating FSM's timeout
	// handles retransmission, exactly as for an arbitration loss).
	Drop bool
	// Delay adds extra cycles on top of the nominal hop latency; it must
	// be non-negative. A held-back message can be overtaken by later
	// messages on the same link, which is how reordering is modeled.
	Delay int64
	// Dup delivers an additional copy of the message.
	Dup bool
	// DupDelay is the extra delay of the duplicate relative to the
	// nominal arrival; it must be non-negative.
	DupDelay int64
}

// Perturber is the control-plane perturbation hook (Options.Perturb):
// it is consulted once per control-message transmission over a link —
// original sends, per-hop forwards, and probe forks alike — and returns
// a Verdict. Implementations must be deterministic given their own seed
// and the call sequence; the controller calls it in a fixed order each
// cycle, so identically seeded simulations stay byte-identical (the
// property the differential harness checks).
//
// The default path (Options.Perturb == nil) costs one nil check and
// allocates nothing.
type Perturber interface {
	PerturbMsg(now int64, from geom.NodeID, out geom.Direction, typ MsgType) Verdict
}

// transmit places m in flight after applying any configured
// perturbation: the message is appended to the in-flight set (possibly
// delayed, possibly with a duplicate) or dropped. from/out name the link
// the message is crossing.
func (c *Controller) transmit(m Message, from geom.NodeID, out geom.Direction) {
	if c.opt.Perturb == nil {
		c.msgs = append(c.msgs, m)
		return
	}
	v := c.opt.Perturb.PerturbMsg(c.sim.Now, from, out, m.Type)
	if v.Dup {
		d := m
		d.NextAt += v.DupDelay
		c.msgs = append(c.msgs, d)
	}
	if v.Drop {
		return
	}
	m.NextAt += v.Delay
	c.msgs = append(c.msgs, m)
}

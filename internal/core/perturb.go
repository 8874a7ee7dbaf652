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
	// Dup delivers an additional deep copy of the message (its own Turns
	// buffer — duplicates must never alias pooled message state).
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
// perturbation. It owns m: the message is either appended to the
// in-flight set (possibly delayed) or recycled (dropped). from/out name
// the link the message is crossing.
func (c *Controller) transmit(m *Message, from geom.NodeID, out geom.Direction) {
	if c.opt.Perturb == nil {
		c.msgs = append(c.msgs, m)
		return
	}
	v := c.opt.Perturb.PerturbMsg(c.sim.Now, from, out, m.Type)
	if v.Dup {
		// Deep copy: the duplicate gets its own Turns buffer. Sharing the
		// original's backing array would corrupt both copies as each hop
		// consumes turns, and recycling one would poison the other
		// (freeMsg resets Turns in place).
		d := c.newMsg()
		d.Type = m.Type
		d.Src = m.Src
		d.Vnet = m.Vnet
		d.At = m.At
		d.Heading = m.Heading
		d.Turns = append(d.Turns[:0], m.Turns...)
		d.NextAt = m.NextAt + v.DupDelay
		d.Seq = m.Seq
		d.OutPort = m.OutPort
		c.msgs = append(c.msgs, d)
	}
	if v.Drop {
		c.freeMsg(m)
		return
	}
	m.NextAt += v.Delay
	c.msgs = append(c.msgs, m)
}

// CheckMessagePool verifies the control-message pool invariants: no
// message is pooled twice (a double free), no in-flight message is
// simultaneously pooled (a use-after-free), and no two distinct pooled
// or in-flight messages alias one Turns backing array. Used by the
// perturbation fuzz target — duplication and drop paths each recycle
// exactly once, and this check is how a violation surfaces.
func (c *Controller) CheckMessagePool() error {
	seen := make(map[*Message]string, len(c.msgPool)+len(c.msgs))
	for _, m := range c.msgPool {
		if m == nil {
			return errMsgPool("nil entry in pool")
		}
		if where, dup := seen[m]; dup {
			return errMsgPool("message pooled twice (" + where + ")")
		}
		seen[m] = "pool"
	}
	for _, m := range c.msgs {
		if where, dup := seen[m]; dup {
			return errMsgPool("in-flight message also " + where)
		}
		seen[m] = "in-flight"
	}
	turns := make(map[*geom.Turn]string, len(seen))
	for m, where := range seen {
		if cap(m.Turns) == 0 {
			continue
		}
		head := &m.Turns[:cap(m.Turns)][0]
		if prev, dup := turns[head]; dup {
			return errMsgPool("turn buffer aliased between " + prev + " and " + where + " messages")
		}
		turns[head] = where
	}
	return nil
}

// errMsgPool is the error type of CheckMessagePool violations.
type errMsgPool string

func (e errMsgPool) Error() string { return "core: message pool corrupted: " + string(e) }

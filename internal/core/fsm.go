package core

import (
	"fmt"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/network"
)

// State is the recovery FSM state of one static-bubble router (Fig. 5 of
// the paper).
type State int8

// The six FSM states.
const (
	// StateOff: counter off, no packets buffered at non-local ports.
	StateOff State = iota
	// StateDD: deadlock detection — the counter tracks one occupied VC
	// round-robin; expiry at tDD sends a probe.
	StateDD
	// StateDisable: our probe returned and the disable was sent; waiting
	// up to tDR = 2×path for it to return.
	StateDisable
	// StateSBActive: the disable returned; the bubble is on, the chain
	// is fenced, and the deadlocked ring advances one step.
	StateSBActive
	// StateCheckProbe: the bubble was reclaimed; a check_probe is probing
	// whether the chain still exists.
	StateCheckProbe
	// StateEnable: recovery is winding down; an enable is clearing fences
	// along the latched path.
	StateEnable
)

func (s State) String() string {
	switch s {
	case StateOff:
		return "S_OFF"
	case StateDD:
		return "S_DD"
	case StateDisable:
		return "S_DISABLE"
	case StateSBActive:
		return "S_SB_ACTIVE"
	case StateCheckProbe:
		return "S_CHECK_PROBE"
	case StateEnable:
		return "S_ENABLE"
	}
	return fmt.Sprintf("State(%d)", int8(s))
}

// inRecovery reports whether the FSM has committed to resolving a
// specific dependency chain (it rejects foreign disables/enables while
// set, per Section IV-B).
func (s State) inRecovery() bool {
	return s == StateDisable || s == StateSBActive || s == StateCheckProbe || s == StateEnable
}

// vcPtr identifies the VC the detection counter currently watches.
// slot == bubbleSlot refers to the router's static bubble (a stale
// occupant left by a torn-down recovery must be watched like any other
// stuck packet, or its chain becomes undetectable at this router).
type vcPtr struct {
	port geom.Direction
	slot int // index into Router.In[port], or bubbleSlot
}

// bubbleSlot is the sentinel slot index for the static bubble.
const bubbleSlot = -1

// fsm is the per-static-bubble-router counter FSM.
type fsm struct {
	node  geom.NodeID
	state State

	// deadline is the cycle at which the current threshold expires
	// (counter value ≥ threshold). Meaningful in DD/Disable/CheckProbe/
	// Enable states.
	deadline int64
	// tDR is 2× the latched path length, set when the probe returns.
	tDR int64

	// ptr and ptrPkt track the watched VC and its resident packet in
	// StateDD ("flit leaves" is detected as a packet change).
	ptr    vcPtr
	ptrPkt int64

	// Recovery context, latched when the probe returns.
	turnBuf  []geom.Turn    // the Turn Buffer
	probeOut geom.Direction // output port the probe was sent from
	probeIn  geom.Direction // input port the probe returned on
	vnet     int            // vnet of the chain under recovery

	// seq is the recovery-round number, bumped when a probe return opens
	// a new round; message returns are only honored when their Seq
	// matches.
	seq int64
	// rngState drives the per-FSM retransmission jitter (an LCG seeded by
	// the node id). Identical thresholds at every router would phase-lock
	// retransmissions: in a frozen deadlock, the same pair of probes then
	// collides at the same output in every round, starving one forever.
	// Real implementations break such livelocks with an LFSR; we do the
	// same, deterministically per node.
	rngState uint64

	// recoveryStart is the cycle the current round's disable returned
	// (recovery began); used to report recovery durations.
	recoveryStart int64
	// enableRetries counts S_ENABLE retransmissions this round; a bounded
	// retry limit covers the pathological case of the latched path dying
	// mid-recovery (the enable can then never return).
	enableRetries int

	// lastGrants snapshots the router's grant counter: any new grant at
	// the fenced router is chain progress and renews the S_SB_ACTIVE
	// guard (rotation of a long ring with multi-flit packets is slow but
	// alive).
	lastGrants int64

	// bubbleWasOccupied is set once a packet enters the active bubble,
	// so the FSM can detect the subsequent reclaim; bubblePktID identifies
	// the current occupant so a fresh arrival (progress) renews the
	// liveness guard.
	bubbleWasOccupied bool
	bubblePktID       int64
}

// reset returns the FSM to S_OFF with all round context cleared, as if
// freshly attached — used when its router powers off, dies, or
// recovers. Three fields survive: node (identity), rngState (the
// deterministic jitter stream must not rewind — replaying it would
// re-phase-lock retransmissions the stream already decorrelated), and
// seq (stale in-flight messages from pre-death rounds must never match
// a post-recovery round's sequence number). turnBuf keeps its capacity.
func (c *Controller) reset(f *fsm) {
	c.setState(f, StateOff)
	f.deadline = 0
	f.tDR = 0
	f.ptr = vcPtr{}
	f.ptrPkt = 0
	f.turnBuf = f.turnBuf[:0]
	f.probeOut = 0
	f.probeIn = 0
	f.vnet = 0
	f.recoveryStart = 0
	f.enableRetries = 0
	f.lastGrants = 0
	f.bubbleWasOccupied = false
	f.bubblePktID = 0
}

// jitter returns a small pseudo-random delay in [0, 16) to decorrelate
// retransmission phases across FSMs.
func (f *fsm) jitter() int64 {
	f.rngState = f.rngState*6364136223846793005 + 1442695040888963407
	return int64((f.rngState >> 33) % 16)
}

// pathLen returns the hop length of the latched dependency cycle: one hop
// per recorded turn plus the closing hop back into the originator.
func (f *fsm) pathLen() int64 { return int64(len(f.turnBuf)) + 1 }

// nextOccupiedVC scans non-local input VCs (plus the static bubble, as
// the final pseudo-slot) round-robin starting after `from` and returns the
// first occupied one. ok is false if every candidate is empty.
func nextOccupiedVC(r *network.Router, cfg network.Config, from vcPtr) (vcPtr, int64, bool) {
	slots := cfg.SlotsPerPort()
	total := geom.NumLinkDirs*slots + 1 // +1: the bubble pseudo-slot
	start := 0
	switch {
	case from.slot == bubbleSlot:
		start = geom.NumLinkDirs*slots + 1
	case from.port.IsLink():
		start = int(from.port)*slots + from.slot + 1
	}
	// Fast path: the network's occupancy mirror hands us every candidate
	// as one bit word in this scan's exact cyclic order, so the
	// round-robin winner is the first set bit at or after start
	// (wrapping) — two TrailingZeros64 instead of walking ~total slots.
	if w, ok := r.OccupiedScanWord(); ok {
		if w == 0 {
			return vcPtr{}, 0, false
		}
		idx := bits.TrailingZeros64(w & (^uint64(0) << uint(start%total)))
		if idx == 64 {
			idx = bits.TrailingZeros64(w)
		}
		if idx == geom.NumLinkDirs*slots {
			return vcPtr{r.Bubble.InPort, bubbleSlot}, r.Bubble.VC.Pkt.ID, true
		}
		port := geom.Direction(idx / slots)
		slot := idx % slots
		return vcPtr{port, slot}, r.In[port][slot].Pkt.ID, true
	}
	for k := 0; k < total; k++ {
		idx := (start + k) % total
		if idx == geom.NumLinkDirs*slots {
			if r.Bubble.Present && r.Bubble.VC.Pkt != nil {
				return vcPtr{r.Bubble.InPort, bubbleSlot}, r.Bubble.VC.Pkt.ID, true
			}
			continue
		}
		port := geom.Direction(idx / slots)
		slot := idx % slots
		vc := &r.In[port][slot]
		if vc.Pkt != nil {
			return vcPtr{port, slot}, vc.Pkt.ID, true
		}
	}
	return vcPtr{}, 0, false
}

// watchedVC returns the VC the pointer refers to.
func watchedVC(r *network.Router, p vcPtr) *network.VC {
	if p.slot == bubbleSlot {
		return &r.Bubble.VC
	}
	return &r.In[p.port][p.slot]
}

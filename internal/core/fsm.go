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

	// ptr and ptrPkt track the watched buffer (a candidate index,
	// Router.Buf) and its resident packet in StateDD ("flit leaves" is
	// detected as a packet change).
	ptr    int
	ptrPkt int64

	// Recovery context, latched when the probe returns.
	turnBuf  Path           // the Turn Buffer
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
// a post-recovery round's sequence number).
func (c *Controller) reset(f *fsm) {
	c.setState(f, StateOff)
	f.deadline = 0
	f.tDR = 0
	f.ptr = 0
	f.ptrPkt = 0
	f.turnBuf = Path{}
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
func (f *fsm) pathLen() int64 { return int64(f.turnBuf.Len()) + 1 }

// linkSlots masks the candidate indices of the link input ports' VCs.
const linkSlots = 1<<(geom.NumLinkDirs*network.SlotsPerPort) - 1

// nextOccupiedVC scans router r's link-input VCs, then its static bubble
// when present, round-robin starting after candidate index from (-1 starts
// at the first) and returns the first occupied one with its packet's id;
// ok is false if every candidate is empty. A stale bubble occupant left by
// a torn-down recovery must be watched like any other stuck packet, or its
// chain becomes undetectable at this router. The candidates are the
// router's occupancy word less the local port, so the winner is its first
// set bit after from, wrapping.
func nextOccupiedVC(s *network.Sim, r *network.Router, from int) (int, int64, bool) {
	scan := uint64(linkSlots)
	if r.Bubble.Present {
		scan |= 1 << network.BubbleIndex
	}
	w := s.OccupancyMirror(r.ID) & scan
	if w == 0 {
		return 0, 0, false
	}
	ci := bits.TrailingZeros64(w & (^uint64(0) << uint(from+1)))
	if ci == 64 {
		ci = bits.TrailingZeros64(w)
	}
	return ci, r.Buf(ci).Pkt.ID, true
}

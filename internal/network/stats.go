package network

// LinkClass classifies link occupancy for utilization accounting
// (paper Fig. 11 breaks link utilization down by message class).
type LinkClass int

// The message classes that can occupy a link cycle.
const (
	ClassFlit LinkClass = iota
	ClassProbe
	ClassDisable
	ClassEnable
	ClassCheckProbe
	NumLinkClasses
)

func (c LinkClass) String() string {
	switch c {
	case ClassFlit:
		return "flit"
	case ClassProbe:
		return "probe"
	case ClassDisable:
		return "disable"
	case ClassEnable:
		return "enable"
	case ClassCheckProbe:
		return "check_probe"
	}
	return "unknown"
}

// StepperCounters reports how many cycles each execution path of the
// stepper has taken, plus cross-shard traffic, for tests and the
// benchmark. Counters are execution observability, not simulation
// state: they vary with Shards while Stats does not. QuietCycles +
// DenseCycles equals the number of Step calls.
type StepperCounters struct {
	// QuietCycles is the number of cycles skipped by quiet-epoch
	// fast-forward (Step returned without running any phase).
	QuietCycles int64
	// DenseCycles counts swept cycles: every Step that ran the hooks and
	// the active-set sweep. (The name predates the single stepper; bench/
	// reads it as network.dense_cycle_share.)
	DenseCycles int64
	// ParallelCycles counts the swept cycles a sharded Sim fanned out to
	// its shard workers; the rest ran the sequential sweep on the
	// coordinator.
	ParallelCycles int64
	// XFills counts grants that filled a VC in a router owned by another
	// shard — seam crossings. The seam property test asserts these occur
	// only at band-boundary routers.
	XFills int64
	// DenseEnters and DenseExits are always 0: there is no mode to enter
	// or leave. They stay until a benchmark change retires
	// network.mode_switches, which bench/ computes from them.
	DenseEnters int64
	DenseExits  int64
}

// Stats accumulates simulation counters. Scheme plugins increment the
// recovery counters; the simulator core maintains the rest.
type Stats struct {
	// Offered counts packets enqueued at NIs; Injected those that entered
	// the network; Delivered those that reached their destination NI.
	Offered   int64
	Injected  int64
	Delivered int64
	// DroppedUnreachable counts packets discarded at the source because
	// no route existed (disconnected topology). They are never offered.
	DroppedUnreachable int64
	// Lost counts offered packets destroyed by runtime failures
	// (conservation: Offered = Delivered + InFlight + Queued + Lost).
	Lost int64

	InjectedFlits  int64 // flits that entered the network
	DeliveredFlits int64 // flits that reached their destination NI

	SumLatency    int64 // total (queue+network) latency of delivered packets
	SumNetLatency int64 // in-network latency of delivered packets
	MaxLatency    int64
	HopMoves      int64 // buffer-to-buffer packet movements

	// LinkCycles[class] counts directed-link busy cycles per class.
	LinkCycles [NumLinkClasses]int64

	// Recovery-protocol counters (maintained by internal/core and
	// internal/escape).
	ProbesSent         int64
	DisablesSent       int64
	EnablesSent        int64
	CheckProbesSent    int64
	ProbesReturned     int64
	DeadlockRecoveries int64 // disable returned → bubble switched on
	BubbleOccupancies  int64 // packets that passed through a static bubble
	BubbleTransfers    int64 // bubble→same-port-VC occupant transfers
	EscapeTransfers    int64 // packets moved to escape routing
	SpinRotations      int64 // synchronized cycle rotations (SPIN mode)
}

func (st *Stats) recordDelivery(p *Packet) {
	st.Delivered++
	lat := p.Latency()
	st.SumLatency += lat
	st.SumNetLatency += p.NetLatency()
	if lat > st.MaxLatency {
		st.MaxLatency = lat
	}
}

// merge folds a shard commit sink's delta Stats into st. Every field is
// a sum except MaxLatency, which folds by max — both commutative and
// associative, so folding per-shard deltas in shard order reproduces the
// sequential core's totals exactly (the per-delivery interleaving is
// unobservable: Stats is only read at cycle boundaries).
func (st *Stats) merge(d *Stats) {
	st.Offered += d.Offered
	st.Injected += d.Injected
	st.Delivered += d.Delivered
	st.DroppedUnreachable += d.DroppedUnreachable
	st.Lost += d.Lost
	st.InjectedFlits += d.InjectedFlits
	st.DeliveredFlits += d.DeliveredFlits
	st.SumLatency += d.SumLatency
	st.SumNetLatency += d.SumNetLatency
	if d.MaxLatency > st.MaxLatency {
		st.MaxLatency = d.MaxLatency
	}
	st.HopMoves += d.HopMoves
	for c := range st.LinkCycles {
		st.LinkCycles[c] += d.LinkCycles[c]
	}
	st.ProbesSent += d.ProbesSent
	st.DisablesSent += d.DisablesSent
	st.EnablesSent += d.EnablesSent
	st.CheckProbesSent += d.CheckProbesSent
	st.ProbesReturned += d.ProbesReturned
	st.DeadlockRecoveries += d.DeadlockRecoveries
	st.BubbleOccupancies += d.BubbleOccupancies
	st.BubbleTransfers += d.BubbleTransfers
	st.EscapeTransfers += d.EscapeTransfers
	st.SpinRotations += d.SpinRotations
}

// AvgLatency returns mean total latency of delivered packets, or 0 when
// none were delivered.
func (st *Stats) AvgLatency() float64 {
	if st.Delivered == 0 {
		return 0
	}
	return float64(st.SumLatency) / float64(st.Delivered)
}

// AvgNetLatency returns mean in-network latency of delivered packets.
func (st *Stats) AvgNetLatency() float64 {
	if st.Delivered == 0 {
		return 0
	}
	return float64(st.SumNetLatency) / float64(st.Delivered)
}

// LinkUtilization returns, per class, the fraction of (alive directed
// link × cycle) slots occupied by that class.
func (st *Stats) LinkUtilization(cycles int64, aliveDirectedLinks int) [NumLinkClasses]float64 {
	var out [NumLinkClasses]float64
	denom := float64(cycles) * float64(aliveDirectedLinks)
	if denom == 0 {
		return out
	}
	for c := 0; c < int(NumLinkClasses); c++ {
		out[c] = float64(st.LinkCycles[c]) / denom
	}
	return out
}

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

// StepperCounters reports how many cycles the stepper has run, for
// tests and the benchmark. DenseCycles equals the number of Step calls.
type StepperCounters struct {
	// DenseCycles counts swept cycles: every Step runs the hooks and the
	// active-set sweep. (The name predates the single stepper; bench/
	// reads it as network.dense_cycle_share.)
	DenseCycles int64
	// QuietCycles, XFills, DenseEnters and DenseExits are always 0: no
	// cycle is skipped, there are no shards whose seams a fill could
	// cross, and no mode to enter or leave. They stay until a benchmark
	// change retires network.quiet_cycle_share, network.xfills_per_kcycle
	// and network.mode_switches, which bench/ computes from them.
	QuietCycles int64
	XFills      int64
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

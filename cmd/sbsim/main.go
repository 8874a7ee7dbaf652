// Command sbsim runs one NoC simulation: a mesh with optional random
// faults, one of the three deadlock-freedom schemes (spanning tree,
// escape VC, static bubble), and synthetic traffic — then reports
// latency, throughput, recovery-protocol activity, link utilization, and
// the energy breakdown.
//
// Examples:
//
//	sbsim -scheme sb -kind links -faults 20 -rate 0.10 -cycles 20000
//	sbsim -scheme tree -kind routers -faults 8 -pattern bit_complement
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/deadlock"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/memprof"
	"repro/internal/network"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/validate"
	"repro/internal/viz"
)

// patterns are the traffic names -pattern accepts, as
// experiments.Instance.Pattern spells them.
var patterns = []string{"uniform_random", "bit_complement", "transpose"}

// checkPattern rejects a -pattern value Instance.Pattern would not
// recognise (it falls back to uniform_random rather than failing).
func checkPattern(name string) error {
	for _, p := range patterns {
		if name == p {
			return nil
		}
	}
	return fmt.Errorf("-pattern must be one of %s", strings.Join(patterns, ", "))
}

// checkRanges rejects numeric flags outside what a run can honour:
// Params.withDefaults would silently turn a zero -width or -height into
// 8, more faults than the mesh has components cannot be injected (and
// traffic needs one router alive), and an empty run has no accepted rate
// to report.
func checkRanges(width, height int, kind topology.FaultKind, faults, cycles int, rate float64) error {
	maxFaults := topology.MaxFaults(width, height, kind)
	if kind == topology.RouterFaults {
		maxFaults--
	}
	switch {
	case width < 1 || height < 1:
		return fmt.Errorf("-width and -height must be at least 1 (got %dx%d)", width, height)
	case faults < 0 || faults > maxFaults:
		return fmt.Errorf("-faults must be in [0, %d] for %v on %dx%d (got %d)",
			maxFaults, kind, width, height, faults)
	case cycles < 1:
		return fmt.Errorf("-cycles must be at least 1 (got %d)", cycles)
	case !(rate >= 0 && rate <= 1):
		return fmt.Errorf("-rate must be in [0, 1] flits/node/cycle (got %v)", rate)
	}
	return nil
}

// checkRecovery rejects recovery flags a run would not honour:
// Params.withDefaults silently turns a zero -tdd into 34, a negative one
// lets every FSM time out on its first tick, and only the static-bubble
// scheme has the recovery FSM that -spin switches to rotation.
func checkRecovery(scheme experiments.Scheme, tdd int64, spin bool) error {
	switch {
	case tdd < 1:
		return fmt.Errorf("-tdd must be at least 1 cycle (got %d)", tdd)
	case spin && scheme != experiments.StaticBubble:
		return fmt.Errorf("-spin needs -scheme sb: only the static-bubble FSM rotates")
	}
	return nil
}

func main() {
	width := flag.Int("width", 8, "mesh width")
	height := flag.Int("height", 8, "mesh height")
	kindStr := flag.String("kind", "links", "fault kind: links or routers")
	faults := flag.Int("faults", 0, "number of random faults")
	seed := flag.Int64("seed", 1, "topology and traffic seed")
	schemeStr := flag.String("scheme", "sb", "scheme: tree, evc, or sb")
	pattern := flag.String("pattern", "uniform_random", "traffic: "+strings.Join(patterns, ", "))
	rate := flag.Float64("rate", 0.05, "offered load in flits/node/cycle")
	cycles := flag.Int("cycles", 20000, "simulated cycles")
	drain := flag.Bool("drain", true, "stop injecting after cycles and drain (up to 10x horizon)")
	tdd := flag.Int64("tdd", 34, "static-bubble detection threshold")
	spin := flag.Bool("spin", false, "use SPIN-style synchronized-rotation recovery (follow-up work)")
	vizDump := flag.Bool("viz", false, "render occupancy/fence/bubble maps at end of run")
	check := flag.Bool("check", false, "run invariant validation at end of run")
	snapFile := flag.String("snapshot", "", "write a JSON diagnostic snapshot to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation loop to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC) after the run to this file")
	flag.Parse()

	var kind topology.FaultKind
	switch *kindStr {
	case "links":
		kind = topology.LinkFaults
	case "routers":
		kind = topology.RouterFaults
	default:
		fmt.Fprintln(os.Stderr, "sbsim: -kind must be links or routers")
		os.Exit(2)
	}
	var scheme experiments.Scheme
	switch *schemeStr {
	case "tree":
		scheme = experiments.SpanningTree
	case "evc":
		scheme = experiments.EscapeVC
	case "sb":
		scheme = experiments.StaticBubble
	default:
		fmt.Fprintln(os.Stderr, "sbsim: -scheme must be tree, evc, or sb")
		os.Exit(2)
	}
	if err := checkPattern(*pattern); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		os.Exit(2)
	}
	if err := checkRanges(*width, *height, kind, *faults, *cycles, *rate); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		os.Exit(2)
	}
	if err := checkRecovery(scheme, *tdd, *spin); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		os.Exit(2)
	}

	p := experiments.Params{Width: *width, Height: *height, TDD: *tdd, BaseSeed: *seed, SpinMode: *spin}
	topo := p.SampleTopology(kind, *faults, 0)
	fmt.Printf("topology: %v (%d %v faults, seed %d)\n", topo, *faults, kind, *seed)
	fmt.Printf("scheme:   %v\n", scheme)

	inst := p.Build(topo, scheme, *seed)
	inj := inst.Injector(inst.Pattern(*pattern), *rate, *seed+1000)
	s := inst.Sim

	// Profiling covers exactly the simulation loop (build and reporting
	// excluded), so profiles are directly comparable across runs.
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		stop, err := memprof.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			os.Exit(1)
		}
		stopCPU = stop
	}
	ph := experiments.Phases{Measure: *cycles}
	if *drain {
		ph.Drain = 10 * *cycles
	}
	m := experiments.Run(s, inj, ph)
	if err := stopCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		os.Exit(1)
	}
	if *memProfile != "" {
		if err := memprof.WriteHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			os.Exit(1)
		}
	}

	st := &s.Stats
	fmt.Printf("\n--- traffic ---\n")
	fmt.Printf("offered:   %d packets (%d dropped unreachable)\n", st.Offered, st.DroppedUnreachable)
	fmt.Printf("delivered: %d packets / %d flits\n", st.Delivered, st.DeliveredFlits)
	fmt.Printf("in flight: %d, queued: %d\n", s.InFlight(), s.QueuedPackets())
	// Latency and throughput cover the -cycles window, as in the figures;
	// the drain that follows it only empties the network.
	fmt.Printf("latency:   avg %.1f cycles over %d window deliveries, max %d\n",
		m.AvgLatency, m.Delivered, st.MaxLatency)
	fmt.Printf("accepted:  %.4f flits/node/cycle\n", m.AcceptedFlits)
	fmt.Printf("drain:     %d cycles, %d packets left\n", m.DrainCycles, m.Left)

	if scheme == experiments.StaticBubble {
		fmt.Printf("\n--- recovery ---\n")
		fmt.Printf("probes sent/returned: %d/%d\n", st.ProbesSent, st.ProbesReturned)
		fmt.Printf("disables/enables/check_probes: %d/%d/%d\n",
			st.DisablesSent, st.EnablesSent, st.CheckProbesSent)
		fmt.Printf("deadlock recoveries: %d (bubble occupancies %d, transfers %d, spins %d)\n",
			st.DeadlockRecoveries, st.BubbleOccupancies, st.BubbleTransfers, st.SpinRotations)
	}
	if scheme == experiments.EscapeVC {
		fmt.Printf("\n--- recovery ---\nescape transfers: %d\n", st.EscapeTransfers)
	}

	util := st.LinkUtilization(s.Now, s.AliveDirectedLinkCount())
	fmt.Printf("\n--- link utilization ---\n")
	for c := network.LinkClass(0); c < network.NumLinkClasses; c++ {
		fmt.Printf("%-12s %.4f%%\n", c, 100*util[c])
	}

	b := energy.Compute(s, energy.SchemeOverheadBuffers(s, scheme.EnergyKey()), s.Now)
	fmt.Printf("\n--- energy (pJ) ---\n")
	fmt.Printf("router dynamic: %.0f\nlink dynamic:   %.0f\nrouter leakage: %.0f\nlink leakage:   %.0f\ntotal:          %.0f\n",
		b.RouterDynamic, b.LinkDynamic, b.RouterLeakage, b.LinkLeakage, b.Total())

	if blocked := deadlock.Analyze(s); len(blocked) > 0 {
		fmt.Printf("\nWARNING: %d packets permanently blocked at end of run\n", len(blocked))
	}
	if *vizDump {
		fmt.Println()
		viz.Summary(os.Stdout, s, inst.SB)
	}
	if *check {
		if vs := validate.Check(s, inst.SB); len(vs) > 0 {
			fmt.Printf("\nINVARIANT VIOLATIONS (%d):\n", len(vs))
			for _, v := range vs {
				fmt.Println(" ", v)
			}
			os.Exit(1)
		}
		fmt.Println("\ninvariants: all checks passed")
	}
	if *snapFile != "" {
		f, err := os.Create(*snapFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := snapshot.Write(f, snapshot.Capture(s, inst.SB)); err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot written to %s\n", *snapFile)
	}
}

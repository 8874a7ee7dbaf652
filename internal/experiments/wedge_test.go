package experiments

import (
	"testing"

	"repro/internal/deadlock"
	"repro/internal/topology"
)

// TestSustainedLoadWedgesSBAndSpin pins ROADMAP item 1(b)'s sustained-load
// reproducer: uniform random traffic at 0.3 flits/node/cycle for 3000
// cycles on RandomIrregular(8,8,LinkFaults,21,2), then a drain with
// injection stopped. Static Bubble and SPIN, which share detection,
// probes, fences and enables, both wedge; the spanning tree and the
// escape VC, which share none of that, drain. It asserts today's wedge,
// not a requirement: a fix to the shared protocol flips the SB and SPIN
// rows, and then this test is rewritten as a liveness check.
func TestSustainedLoadWedgesSBAndSpin(t *testing.T) {
	const cycles, rate = 3000, 0.3
	for _, tc := range []struct {
		name   string
		scheme Scheme
		spin   bool
		wedged bool
	}{
		{"static_bubble", StaticBubble, false, true},
		{"spin", StaticBubble, true, true},
		{"sp_tree", SpanningTree, false, false},
		{"escape_vc", EscapeVC, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 21, 2)
			inst := Params{SpinMode: tc.spin}.Build(topo, tc.scheme, 2)
			s := inst.Sim
			inj := inst.Injector(inst.Pattern("uniform"), rate, 102)
			for i := 0; i < cycles; i++ {
				inj.Tick(s)
				s.Step()
			}
			wedged := deadlock.DrainWedged(s)
			t.Logf("wedged %v: %d in flight, %d queued, %d recoveries, %d delivered",
				wedged, s.InFlight(), s.QueuedPackets(), s.Stats.DeadlockRecoveries, s.Stats.Delivered)
			if wedged != tc.wedged {
				t.Fatalf("wedged = %v, want %v", wedged, tc.wedged)
			}
			if tc.scheme == StaticBubble && s.Stats.DeadlockRecoveries == 0 {
				t.Fatal("vacuous: the wedge came before any recovery")
			}
		})
	}
}

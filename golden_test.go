package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/routing"
	"repro/internal/topology"
)

// runGoldenScenario drives the pinned end-to-end scenario (seeded
// irregular 8x8 topology, mixed traffic, live SB recovery) for 6000
// cycles. step advances the simulation one cycle — either the
// event-driven Sim.Step or the refmodel full scan.
func runGoldenScenario(s *network.Sim, topo *topology.Topology, step func()) {
	core.Attach(s, core.Options{TDD: 24})
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(9))
	for cyc := 0; cyc < 6000; cyc++ {
		if cyc < 4000 {
			for n := 0; n < 64; n++ {
				if !topo.RouterAlive(geom.NodeID(n)) || rng.Float64() >= 0.09 {
					continue
				}
				dst := geom.NodeID(rng.Intn(64))
				r, ok := min.Route(geom.NodeID(n), dst, rng)
				if !ok {
					s.Drop()
					continue
				}
				ln := 1
				if rng.Intn(2) == 0 {
					ln = 5
				}
				s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), ln, r))
			}
		}
		step()
	}
}

// goldenWant is the pinned Stats for the scenario above. To regenerate
// after an intentional behaviour change, print the fresh counters and
// paste them here:
//
//	go test -run TestGoldenTrajectory -v .   (add a t.Logf("%+v", s.Stats))
//
// or simply read the got/want diff this test prints on mismatch.
var goldenWant = network.Stats{
	Offered:            22398,
	Injected:           13324,
	Delivered:          11237,
	DroppedUnreachable: 738,
	InjectedFlits:      39260,
	DeliveredFlits:     33169,
	SumLatency:         1852037,
	SumNetLatency:      1501978,
	MaxLatency:         3989,
	HopMoves:           62712,
	LinkCycles: [network.NumLinkClasses]int64{
		185812, 90849, 316, 698, 90,
	},
	ProbesSent:         2599,
	DisablesSent:       52,
	EnablesSent:        52,
	CheckProbesSent:    14,
	ProbesReturned:     52,
	DeadlockRecoveries: 15,
	BubbleOccupancies:  20,
	BubbleTransfers:    3,
}

// TestGoldenTrajectory pins the exact counters of one seeded end-to-end
// scenario (irregular topology, mixed traffic, live recovery) under the
// event-driven core. Any change to simulator timing, allocation,
// routing, or the recovery protocol will move these numbers: if a change
// is intentional, re-record the golden (see goldenWant); if not, this
// test just caught a behavioural regression.
func TestGoldenTrajectory(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 18, 42)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	runGoldenScenario(s, topo, s.Step)
	if s.Stats != goldenWant {
		t.Fatalf("golden trajectory diverged:\n got %+v\nwant %+v", s.Stats, goldenWant)
	}
	if s.InFlight() != 2087 || s.QueuedPackets() != 9074 {
		t.Fatalf("golden occupancy diverged: inflight %d queued %d", s.InFlight(), s.QueuedPackets())
	}
}

// TestGoldenTrajectoryRefModel replays the identical scenario through
// the refmodel full-scan stepper: both cores must land on the same
// pinned counters, anchoring the differential harness to a known-good
// trajectory with live SB recovery.
func TestGoldenTrajectoryRefModel(t *testing.T) {
	topo := topology.RandomIrregular(8, 8, topology.LinkFaults, 18, 42)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(7)))
	ref := refmodel.New(s)
	runGoldenScenario(s, topo, ref.Step)
	if s.Stats != goldenWant {
		t.Fatalf("refmodel golden trajectory diverged:\n got %+v\nwant %+v", s.Stats, goldenWant)
	}
	if s.InFlight() != 2087 || s.QueuedPackets() != 9074 {
		t.Fatalf("refmodel golden occupancy diverged: inflight %d queued %d", s.InFlight(), s.QueuedPackets())
	}
}

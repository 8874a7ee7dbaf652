package network

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestStepperPathCounters pins what the counters mean: every Step is a
// swept cycle (DenseCycles counts the run, QuietCycles stays 0), drained
// stretches included, and a busy run keeps its request vectors live.
func TestStepperPathCounters(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := New(topo, Config{}, rand.New(rand.NewSource(3)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(4))
	for cyc := 0; cyc < 2000; cyc++ {
		// Bursts saturate, gaps drain to idle.
		if cyc%500 < 30 {
			for n := 0; n < 64; n++ {
				if rng.Float64() >= 0.4 {
					continue
				}
				dst := geom.NodeID(rng.Intn(64))
				if dst == geom.NodeID(n) {
					continue
				}
				r, ok := min.Route(geom.NodeID(n), dst, rng)
				if !ok {
					continue
				}
				s.Enqueue(s.NewPacket(geom.NodeID(n), dst, rng.Intn(3), 1, r))
			}
		}
		s.Step()
	}
	ctr := s.StepperCounters()
	if ctr.DenseCycles != 2000 || ctr.QuietCycles != 0 {
		t.Fatalf("want 2000 swept cycles and none skipped, got %+v", ctr)
	}
	// A busy workload sweeps every cycle.
	s2 := New(topo, Config{}, rand.New(rand.NewSource(3)))
	for n := 0; n < 64; n++ {
		r, ok := min.Route(geom.NodeID(n), geom.NodeID(63-n), rng)
		if !ok {
			continue
		}
		s2.Enqueue(s2.NewPacket(geom.NodeID(n), geom.NodeID(63-n), 0, 5, r))
	}
	s2.Run(50)
	if c2 := s2.StepperCounters(); c2.DenseCycles != 50 {
		t.Fatalf("a busy run must sweep every cycle, got %+v", c2)
	}
}

// TestEnqueueAfterIdleGapInjects: a packet enqueued after a long idle
// stretch, with the active set empty since the last delivery, must be
// injected the very cycle it arrives, as the sequential semantics
// dictate.
func TestEnqueueAfterIdleGapInjects(t *testing.T) {
	topo := topology.NewMesh(6, 6)
	s := New(topo, Config{}, rand.New(rand.NewSource(11)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(12))
	// Drain fully, then idle far.
	r0, _ := min.Route(0, 35, rng)
	s.Enqueue(s.NewPacket(0, 35, 0, 5, r0))
	s.Run(300)
	if s.InFlight() != 0 || s.Stats.Delivered != 1 {
		t.Fatalf("network not drained: %d in flight, %d delivered", s.InFlight(), s.Stats.Delivered)
	}
	// Enqueue into the idle network: the packet must inject this very cycle.
	r1, _ := min.Route(7, 28, rng)
	p := s.NewPacket(7, 28, 0, 1, r1)
	s.Enqueue(p)
	at := s.Now
	s.Step()
	if p.InjectedAt != at {
		t.Fatalf("packet enqueued after the idle gap injected at %d, want %d", p.InjectedAt, at)
	}
	s.Run(100)
	if p.DeliveredAt < 0 {
		t.Fatal("packet enqueued after the idle gap never delivered")
	}
}

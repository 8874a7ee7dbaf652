package perturb

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/topology"
)

// knobsFromByte decodes one fuzz-program byte into a knob setting: two
// bits per knob select escalating severity, so the fuzzer explores every
// combination of loss/jitter/reorder/duplication including total outage.
func knobsFromByte(b byte) Knobs {
	levels := [4]float64{0, 0.2, 0.5, 1}
	return Knobs{
		Loss:    levels[b&3],
		Jitter:  levels[(b>>2)&3],
		Reorder: levels[(b>>4)&3],
		Dup:     levels[(b>>6)&3],
	}
}

// FuzzPerturbFSM drives arbitrary knob sequences against the recovery
// FSMs on the guaranteed ring deadlock: each program byte reconfigures
// the perturber for a 200-cycle window (including total control-plane
// outages), and after the program the knobs are zeroed and the network
// must fully recover: every packet delivers, every FSM returns to S_OFF,
// no fence stays latched, and no control message is left in flight.
//
// Run with `go test -fuzz=FuzzPerturbFSM ./internal/perturb`.
func FuzzPerturbFSM(f *testing.F) {
	f.Add(int64(1), []byte{0x00})
	f.Add(int64(2), []byte{0x03, 0x00, 0xff, 0x0c})             // outage, clean, everything, jitter
	f.Add(int64(3), []byte{0x55, 0xaa, 0x55, 0xaa})             // alternating mid/high mixes
	f.Add(int64(7), []byte{0xc0, 0xc0, 0x30, 0x30, 0x03, 0x03}) // dup-only, reorder-only, loss-only
	// A stale-round return: without the FSM's Seq check it completes a
	// later round and the ring never drains.
	f.Add(int64(-110), []byte{0x39, 0xbd, 0x30})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) > 48 {
			prog = prog[:48]
		}
		topo := topology.NewMesh(2, 2)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
		p := New(Config{Seed: seed})
		c := core.Attach(s, core.Options{TDD: 20, Perturb: p})
		total := enqueueRing(s, 12)

		for _, b := range prog {
			p.SetDefault(knobsFromByte(b))
			s.Run(200)
		}

		// Outage over: with the control plane restored, the FSM timeouts
		// must converge to a full recovery no matter what came before.
		p.SetDefault(Knobs{})
		for i := 0; i < 12 && s.Stats.Delivered != int64(total); i++ {
			s.Run(5000)
		}
		if s.Stats.Delivered != int64(total) {
			t.Fatalf("delivered %d of %d after knobs cleared (state %v, %d ctrl msgs in flight)",
				s.Stats.Delivered, total, c.FSMState(3), c.InFlightMessages())
		}
		// Let straggler control messages (duplicates, delayed copies) land.
		s.Run(2000)
		for _, n := range c.BubbleRouters() {
			if st := c.FSMState(n); st != core.StateOff {
				t.Fatalf("FSM at %d stuck in %v after drain", n, st)
			}
		}
		for id := range s.Routers {
			if s.Routers[id].Fence.Active {
				t.Fatalf("router %d fence still latched after drain", id)
			}
		}
		if n := c.InFlightMessages(); n != 0 {
			t.Fatalf("%d control messages still in flight after drain", n)
		}
	})
}

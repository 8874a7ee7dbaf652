package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/topology"
)

// dupAll duplicates every transmission (no loss, no delay beyond
// dupDelay for the twin).
type dupAll struct{ dupDelay int64 }

func (d dupAll) PerturbMsg(int64, geom.NodeID, geom.Direction, MsgType) Verdict {
	return Verdict{Dup: true, DupDelay: d.dupDelay}
}

// TestDuplicatedRoundStillDrains runs the guaranteed ring deadlock to
// completion with every message duplicated, the twin either processed in
// the same cycle at the same router as the original (dupDelay 0) or two
// cycles behind it, consuming its turns out of step with the original
// (dupDelay 2), and checks that recovery runs and the ring fully drains.
func TestDuplicatedRoundStillDrains(t *testing.T) {
	for _, dupDelay := range []int64{0, 2} {
		t.Run(fmt.Sprintf("dupDelay=%d", dupDelay), func(t *testing.T) {
			topo := topology.NewMesh(2, 2)
			s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
			c := Attach(s, Options{TDD: 20, Perturb: dupAll{dupDelay: dupDelay}})
			total := enqueueClockwiseRing(s, 12)
			s.Run(40000)
			if s.Stats.DeadlockRecoveries == 0 {
				t.Fatal("expected recoveries under full duplication")
			}
			if s.Stats.Delivered != int64(total) {
				t.Fatalf("delivered %d of %d under full duplication (state %v)",
					s.Stats.Delivered, total, c.FSMState(3))
			}
			if c.InFlightMessages() != 0 {
				t.Fatalf("%d control messages still in flight after drain", c.InFlightMessages())
			}
		})
	}
}

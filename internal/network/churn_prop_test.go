package network_test

// Property tests for packet accounting under randomized Poisson churn.
// These live in the external test package: they drive the simulator
// through internal/reconfig and internal/core, which import network.
//
// Two properties, over quick-generated seeds:
//
//   - Conservation: Offered == Delivered + InFlight + Queued + Lost
//     after every cycle (and validate.Check's full invariant set every
//     64), for abrupt router/link failures overlapping with recoveries,
//     at every shard count — and the full Stats are byte-identical
//     across shard counts 1/2/4/8.
//
//   - No-loss: under *graceful* churn (power-gate drains and
//     revocations only, no abrupt kills), not a single packet may be
//     lost, and after the drain every offered packet is delivered.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/topology"
	"repro/internal/validate"
)

// churnProp drives one seeded Poisson-churn workload and returns the
// final stats. Every decision — mesh size, event times, targets,
// traffic — derives from seed, so the run is reproducible at any shard
// count. graceful selects gate/revoke churn (no packet may die);
// otherwise abrupt fails overlap with scheduled recoveries.
func churnProp(seed int64, shards int, graceful bool) (network.Stats, error) {
	hrng := rand.New(rand.NewSource(seed))
	w := 4 + hrng.Intn(4)
	h := 4 + hrng.Intn(4)
	topo := topology.NewMesh(w, h)
	num := topo.NumNodes()
	s := network.New(topo, network.Config{Shards: shards}, rand.New(rand.NewSource(hrng.Int63())))
	ctl := core.Attach(s, core.Options{TDD: int64(24 + hrng.Intn(16))})
	mgr := reconfig.New(s)
	mgr.SetScheme(ctl)
	alg := mgr.Algorithm()

	erng := rand.New(rand.NewSource(hrng.Int63()))
	rng := rand.New(rand.NewSource(hrng.Int63()))
	cycles := 1000 + 100*hrng.Intn(5)
	meanFail := 120.0 + 40.0*hrng.Float64()
	meanRepair := 150.0 + 100.0*hrng.Float64()
	rate := 0.02 + 0.04*hrng.Float64()

	conserved := func(tag string) error {
		if got := s.Stats.Delivered + s.InFlight() + s.QueuedPackets() + s.Stats.Lost; got != s.Stats.Offered {
			return fmt.Errorf("%s: conservation violated: Delivered+InFlight+Queued+Lost=%d, Offered=%d",
				tag, got, s.Stats.Offered)
		}
		return nil
	}

	nextFail := int64(1 + erng.ExpFloat64()*meanFail)
	window := int64(cycles) * 3 / 4
	for cyc := 0; cyc < cycles; cyc++ {
		now := s.Now
		mgr.Tick()
		if now >= nextFail {
			nextFail = now + 1 + int64(erng.ExpFloat64()*meanFail)
			recoverAt := now + 1 + int64(erng.ExpFloat64()*meanRepair)
			switch {
			case graceful:
				alive := topo.AliveRouters()
				if len(alive) > num*3/4 && mgr.PendingGates() < 3 {
					n := alive[erng.Intn(len(alive))]
					mgr.Submit(reconfig.Event{Kind: reconfig.EvGate, Node: n})
					mgr.SubmitAt(recoverAt, reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n})
				}
			case erng.Intn(3) == 0:
				alive := topo.AliveRouters()
				if len(alive) > num/2 {
					n := alive[erng.Intn(len(alive))]
					mgr.Submit(reconfig.Event{Kind: reconfig.EvFailRouter, Node: n})
					mgr.SubmitAt(recoverAt, reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n})
				}
			default:
				links := topo.AliveUndirectedLinks()
				if len(links) > num {
					l := links[erng.Intn(len(links))]
					mgr.Submit(reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir})
					mgr.SubmitAt(recoverAt, reconfig.Event{Kind: reconfig.EvRecoverLink, Node: l.From, Dir: l.Dir})
				}
			}
		}
		if now < window {
			for n := 0; n < num; n++ {
				src := geom.NodeID(n)
				if rng.Float64() >= rate {
					continue
				}
				if !topo.RouterAlive(src) {
					continue
				}
				dst := geom.NodeID(rng.Intn(num))
				if dst == src || !topo.RouterAlive(dst) {
					continue
				}
				if r, ok := alg.Route(src, dst, rng); ok {
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(3), 1+4*rng.Intn(2), r))
				} else {
					s.Drop()
				}
			}
		}
		s.Step()
		if err := conserved(fmt.Sprintf("cycle %d", cyc)); err != nil {
			return s.Stats, err
		}
		if cyc%64 == 63 {
			if vs := validate.Check(s, ctl); len(vs) > 0 {
				return s.Stats, fmt.Errorf("cycle %d: %d invariant violations, first: %v", cyc, len(vs), vs[0])
			}
		}
	}
	// Drain: keep pumping the event queue so scheduled recoveries apply
	// on time (they can unblock a wedged region), then let traffic land.
	for i := 0; i < 20000; i++ {
		mgr.Tick()
		if mgr.PendingEvents() == 0 && s.InFlight()+s.QueuedPackets() == 0 {
			break
		}
		s.Step()
	}
	if err := conserved("post-drain"); err != nil {
		return s.Stats, err
	}
	return s.Stats, nil
}

// TestPropChurnGracefulNoLoss: graceful churn (drain-based power-offs,
// revocations, recoveries) must never lose a packet — every offered
// packet is eventually delivered.
func TestPropChurnGracefulNoLoss(t *testing.T) {
	f := func(seed int64) bool {
		st, err := churnProp(seed, 1, true)
		if err != nil {
			t.Log(err)
			return false
		}
		if st.Lost != 0 {
			t.Logf("seed %d: graceful churn lost %d packets", seed, st.Lost)
			return false
		}
		if st.Delivered != st.Offered {
			t.Logf("seed %d: %d offered packets never delivered", seed, st.Offered-st.Delivered)
			return false
		}
		return st.Delivered > 0
	}
	cfg := &quick.Config{MaxCount: 8}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropChurnConservationSharded: abrupt churn keeps conservation
// after every cycle, and the whole trajectory is byte-identical across
// shard counts 1/2/4/8.
func TestPropChurnConservationSharded(t *testing.T) {
	f := func(seed int64) bool {
		base, err := churnProp(seed, 1, false)
		if err != nil {
			t.Log(err)
			return false
		}
		if base.Delivered == 0 {
			t.Logf("seed %d: nothing delivered", seed)
			return false
		}
		for _, shards := range []int{2, 4, 8} {
			st, err := churnProp(seed, shards, false)
			if err != nil {
				t.Log(err)
				return false
			}
			if st != base {
				t.Logf("seed %d: stats diverged at shards=%d\nshards=1: %+v\nshards=%d: %+v",
					seed, shards, base, shards, st)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

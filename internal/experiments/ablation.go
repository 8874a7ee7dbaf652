package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// AblationRow compares design variants of the Static Bubble framework on
// a fixed recovery workload: the Section III placement, bubbles at every
// router (upper bound on cost), and the check_probe fast-path on/off.
type AblationRow struct {
	Variant string
	// Buffers is the number of extra buffers the variant adds to the mesh.
	Buffers int
	// RecoveryCycles is the mean number of cycles from workload start to
	// full drain of a constructed ring deadlock.
	RecoveryCycles float64
	// Recoveries and CheckProbes are protocol activity counts.
	Recoveries  float64
	CheckProbes float64
	Runs        int
}

// Ablation runs the design-choice ablations DESIGN.md calls out, on a
// constructed square-loop deadlock placed at several positions of the
// mesh.
func Ablation(p Params) []AblationRow {
	p = p.withDefaults()
	everywhere := make([]geom.NodeID, p.Width*p.Height)
	for i := range everywhere {
		everywhere[i] = geom.NodeID(i)
	}
	variants := []struct {
		name      string
		placement []geom.NodeID
		noCheck   bool
		spin      bool
	}{
		{"paper_placement", nil, false, false},
		{"paper_no_check_probe", nil, true, false},
		{"bubble_everywhere", everywhere, false, false},
		{"spin_followup", nil, false, true},
	}
	positions := [][2]int{{0, 0}, {2, 2}, {4, 3}, {5, 5}, {1, 4}}
	var rows []AblationRow
	for _, v := range variants {
		v := v
		type res struct {
			Buffers                            int
			RecoveryCycles, Recov, CheckProbes float64
		}
		key := func(i int) *sweep.Key {
			return p.cellKey("ablation").Str("variant", v.name).
				Int("x", positions[i][0]).Int("y", positions[i][1])
		}
		// The constructed ring-deadlock workload is fully deterministic;
		// the job seed is unused by design (the cell is still cached).
		results := sweep.Run(p.engine(), len(positions), key,
			func(i int, seed int64) (res, error) {
				pos := positions[i]
				topo := topology.NewMesh(p.Width, p.Height)
				s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
				c := core.Attach(s, core.Options{
					TDD:               p.TDD,
					Placement:         v.placement,
					DisableCheckProbe: v.noCheck,
					Spin:              v.spin,
				})
				var r res
				r.Buffers = len(c.BubbleRouters())
				total := primeSquareLoop(s, pos[0], pos[1], 10)
				start := s.Now
				for s.Stats.Delivered < int64(total) && s.Now-start < 200000 {
					s.Step()
				}
				r.RecoveryCycles = float64(s.Now - start)
				r.Recov = float64(s.Stats.DeadlockRecoveries)
				r.CheckProbes = float64(s.Stats.CheckProbesSent)
				return r, nil
			})
		row := AblationRow{Variant: v.name}
		for _, res := range results {
			if !res.OK() {
				continue
			}
			row.Buffers = res.Value.Buffers
			row.RecoveryCycles += res.Value.RecoveryCycles
			row.Recoveries += res.Value.Recov
			row.CheckProbes += res.Value.CheckProbes
			row.Runs++
		}
		if row.Runs > 0 {
			row.RecoveryCycles /= float64(row.Runs)
			row.Recoveries /= float64(row.Runs)
			row.CheckProbes /= float64(row.Runs)
		}
		rows = append(rows, row)
	}
	return rows
}

// primeSquareLoop wedges the unit square at (x, y) with clockwise 2-hop
// streams, perNode packets per corner, and returns the total offered.
func primeSquareLoop(s *network.Sim, x, y, perNode int) int {
	topo := s.Topo
	loop := []geom.NodeID{
		topo.ID(geom.Coord{X: x, Y: y}),
		topo.ID(geom.Coord{X: x, Y: y + 1}),
		topo.ID(geom.Coord{X: x + 1, Y: y + 1}),
		topo.ID(geom.Coord{X: x + 1, Y: y}),
	}
	total := 0
	for i, n := range loop {
		next, next2 := loop[(i+1)%4], loop[(i+2)%4]
		d1 := geom.DirectionBetween(topo.Coord(n), topo.Coord(next))
		d2 := geom.DirectionBetween(topo.Coord(next), topo.Coord(next2))
		for k := 0; k < perNode; k++ {
			s.Enqueue(s.NewPacket(n, next2, 0, 5, routing.Route{d1, d2}))
			total++
		}
	}
	return total
}

func ablationTable(rows []AblationRow) Table {
	t := Table{
		Title: "Ablation: SB design variants on constructed ring deadlocks (8x8 mesh)",
		Cols: []Column{
			{"variant", "%-22s", "variant"}, {"buffers", "%-9d", "buffers"},
			{"drain(cycles)", "%-15.0f", "drain_cycles"}, {"recoveries", "%-12.1f", "recoveries"},
			{"chk_probes", "%-12.1f", "check_probes"}, {"runs", "%d", "runs"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Variant, r.Buffers, r.RecoveryCycles, r.Recoveries, r.CheckProbes, r.Runs})
	}
	return t
}

package experiments

import (
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Fig2Row is one point of the Fig. 2 sweep: the fraction of sampled
// irregular topologies that are deadlock-prone (contain a cycle in their
// topology graph) at a given fault count.
type Fig2Row struct {
	Kind          topology.FaultKind
	Faults        int
	ProneFraction float64
	Sampled       int
}

// Fig2 sweeps the irregular-topology space over increasing link and
// router fault counts and reports the deadlock-prone percentage
// (paper Fig. 2). faultSteps selects the fault counts per kind; nil
// selects the paper's full range with step 5.
func Fig2(p Params, faultSteps map[topology.FaultKind][]int) []Fig2Row {
	p = p.withDefaults()
	if faultSteps == nil {
		faultSteps = map[topology.FaultKind][]int{
			topology.LinkFaults:   stepRange(1, 96, 5),
			topology.RouterFaults: stepRange(1, 46, 5),
		}
	}
	var rows []Fig2Row
	for _, kind := range []topology.FaultKind{topology.LinkFaults, topology.RouterFaults} {
		for _, k := range faultSteps[kind] {
			if k > topology.MaxFaults(p.Width, p.Height, kind) {
				continue
			}
			key := func(i int) *sweep.Key {
				return p.cellKey("fig2").
					Str("kind", kind.String()).Int("faults", k).Int("topo", i)
			}
			prone := sweep.Run(p.engine(), p.Topologies, key,
				func(i int, seed int64) (bool, error) {
					return p.SampleTopology(kind, k, i).HasTopologyCycle(), nil
				})
			n, sampled := 0, 0
			for _, r := range prone {
				if !r.OK() {
					continue
				}
				sampled++
				if r.Value {
					n++
				}
			}
			row := Fig2Row{Kind: kind, Faults: k, Sampled: sampled}
			if sampled > 0 {
				row.ProneFraction = float64(n) / float64(sampled)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// stepRange returns lo, lo+step, ..., ≤ hi.
func stepRange(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

func fig2Table(rows []Fig2Row) Table {
	t := Table{
		Title: "Fig 2: deadlock-prone irregular topologies (8x8 mesh substrate)",
		Cols: []Column{
			{"kind", "%-8s", "kind"}, {"faults", "%-7d", "faults"},
			{"prone(%)", "%-12.1f", ""}, {"", "", "prone_fraction"}, {"sampled", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Kind, r.Faults, 100 * r.ProneFraction, r.ProneFraction, r.Sampled})
	}
	return t
}

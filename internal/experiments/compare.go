package experiments

import (
	"repro/internal/sweep"
	"repro/internal/topology"
)

// cell is one sampled topology measured under the three schemes: V[sch]
// holds that scheme's metrics in the figure's own order. It is the sweep
// cache's entry value for Fig. 8, 9, 10, 12 and 13 (exported fields).
type cell struct {
	V  [3][]float64
	OK bool
}

// schemeCells is the comparison every Section V figure repeats: sample
// p.Topologies topologies of (kind, faults) and, on each, call run once
// per scheme in presentation order with a private clone of the topology
// and the job seed. A run that reports ok=false voids the whole cell
// (the remaining schemes are skipped). The valid cells come back in
// topology order.
func (p Params) schemeCells(key func(i int) *sweep.Key, kind topology.FaultKind, faults int,
	run func(topo *topology.Topology, sch Scheme, seed int64) (metrics []float64, ok bool)) []cell {
	results := sweep.Run(p.engine(), p.Topologies, key,
		func(i int, seed int64) (cell, error) {
			topo := p.SampleTopology(kind, faults, i)
			c := cell{OK: true}
			for _, sch := range Schemes {
				if c.V[sch], c.OK = run(topo.Clone(), sch, seed); !c.OK {
					break
				}
			}
			return c, nil
		})
	var cells []cell
	for _, r := range results {
		if r.OK() && r.Value.OK {
			cells = append(cells, r.Value)
		}
	}
	return cells
}

// normToTree reduces metric m over the cells: per scheme, the mean of the
// value normalized to the same cell's spanning-tree value, plus the
// tree's own mean. Sums run in topology order with one divide at the
// end, so the result is independent of how the cells were scheduled.
func normToTree(cells []cell, m int) (norm [3]float64, tree float64) {
	for _, c := range cells {
		t := c.V[SpanningTree][m]
		tree += t
		for _, sch := range Schemes {
			norm[sch] += safeRatio(c.V[sch][m], t)
		}
	}
	if n := float64(len(cells)); n > 0 {
		tree /= n
		for sch := range norm {
			norm[sch] /= n
		}
	}
	return norm, tree
}

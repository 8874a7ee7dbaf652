package experiments

import (
	"io"

	"repro/internal/sweep"
	"repro/internal/topology"
)

// SaturationRates is the offered-load sweep used to find each scheme's
// saturation throughput: the maximum accepted rate across offered loads.
// A single very high offered load would understate recovery-based schemes,
// which collapse past their knee under unbounded source queues, while a
// deadlock-free tree merely plateaus.
var SaturationRates = []float64{0.06, 0.10, 0.15, 0.22, 0.32, 0.45}

// Fig9Row is one point of the saturation-throughput sweep, normalized to
// the spanning tree.
type Fig9Row struct {
	Kind   topology.FaultKind
	Faults int
	// Norm is accepted throughput normalized to spanning tree, indexed by
	// Scheme; Abs is the spanning tree's absolute accepted rate in
	// flits/node/cycle.
	Norm    [3]float64
	Abs     float64
	Sampled int
}

// Fig9 reproduces the network saturation-throughput comparison
// (paper Fig. 9) with uniform random traffic.
func Fig9(p Params, faultSteps map[topology.FaultKind][]int) []Fig9Row {
	p = p.withDefaults()
	if faultSteps == nil {
		faultSteps = map[topology.FaultKind][]int{
			topology.LinkFaults:   stepRange(1, 97, 8),
			topology.RouterFaults: stepRange(1, 46, 5),
		}
	}
	var rows []Fig9Row
	for _, kind := range []topology.FaultKind{topology.LinkFaults, topology.RouterFaults} {
		for _, k := range faultSteps[kind] {
			if k > topology.MaxFaults(p.Width, p.Height, kind) {
				continue
			}
			rows = append(rows, fig9Point(p, kind, k))
		}
	}
	return rows
}

func fig9Point(p Params, kind topology.FaultKind, faults int) Fig9Row {
	key := func(i int) *sweep.Key {
		return p.cellKey("fig9").Str("kind", kind.String()).Int("faults", faults).
			Floats("rates", SaturationRates).Int("topo", i)
	}
	cells := p.schemeCells(key, kind, faults,
		func(topo *topology.Topology, sch Scheme, seed int64) ([]float64, bool) {
			best := 0.0
			for ri, rate := range SaturationRates {
				stream := int(sch)*2*len(SaturationRates) + 2*ri
				_, m := p.synthetic(topo, sch, "uniform_random", rate, seed, stream)
				if m.AcceptedFlits > best {
					best = m.AcceptedFlits
				}
				// Past the knee: accepted throughput has started falling
				// away from the offered load; higher rates only collapse
				// further.
				if m.AcceptedFlits < 0.6*rate && best > m.AcceptedFlits {
					break
				}
			}
			// A tree that accepts nothing leaves nothing to normalize to.
			return []float64{best}, sch != SpanningTree || best != 0
		})
	row := Fig9Row{Kind: kind, Faults: faults, Sampled: len(cells)}
	row.Norm, row.Abs = normToTree(cells, 0)
	return row
}

func fig9Table(rows []Fig9Row) Table {
	t := Table{
		Title: "Fig 9: saturation throughput normalized to spanning tree (uniform random)",
		Cols: []Column{
			{"kind", "%-8s", "kind"}, {"faults", "%-7d", "faults"}, {"tree", "%-10.3f", ""},
			{"eVC", "%-10.3f", "evc_norm"}, {"SB", "%-10.3f", "sb_norm"},
			{"tree(fl/n/cy)", "%-14.4f", "tree_flits_node_cycle"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Kind, r.Faults, r.Norm[SpanningTree],
			r.Norm[EscapeVC], r.Norm[StaticBubble], r.Abs, r.Sampled})
	}
	return t
}

// Fig9CSV emits the saturation-throughput sweep as CSV (bench/ digests it).
func Fig9CSV(w io.Writer, rows []Fig9Row) error { return fig9Table(rows).WriteCSV(w) }

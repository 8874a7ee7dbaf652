package experiments

import (
	"fmt"
	"io"

	"repro/internal/sweep"
	"repro/internal/topology"
)

// LowLoadRate is the injection rate (flits/node/cycle) used for the
// low-load latency sweep; deadlocks are absent at this rate (Fig. 3), so
// the escape-VC and SB schemes differ from the spanning tree only through
// path length.
const LowLoadRate = 0.02

// Fig8Row is one point of the low-load latency sweep: per-scheme average
// and maximum packet latency, normalized to the spanning-tree baseline,
// averaged over sampled topologies.
type Fig8Row struct {
	Pattern string
	Kind    topology.FaultKind
	Faults  int
	// AvgNorm and MaxNorm are indexed by Scheme.
	AvgNorm [3]float64
	MaxNorm [3]float64
	// AvgAbs is the absolute spanning-tree average latency (cycles), for
	// reference.
	AvgAbs  float64
	Sampled int
}

// Fig8 reproduces the low-load latency comparison (paper Fig. 8) for the
// given traffic patterns ("uniform_random", "bit_complement") across link
// and router fault sweeps. Nil arguments select the paper's ranges.
func Fig8(p Params, patterns []string, faultSteps map[topology.FaultKind][]int) []Fig8Row {
	p = p.withDefaults()
	if patterns == nil {
		patterns = []string{"uniform_random", "bit_complement"}
	}
	if faultSteps == nil {
		faultSteps = map[topology.FaultKind][]int{
			topology.LinkFaults:   stepRange(1, 47, 6),
			topology.RouterFaults: stepRange(1, 29, 4),
		}
	}
	var rows []Fig8Row
	for _, pattern := range patterns {
		for _, kind := range []topology.FaultKind{topology.LinkFaults, topology.RouterFaults} {
			for _, k := range faultSteps[kind] {
				rows = append(rows, fig8Point(p, pattern, kind, k))
			}
		}
	}
	return rows
}

func fig8Point(p Params, pattern string, kind topology.FaultKind, faults int) Fig8Row {
	key := func(i int) *sweep.Key {
		return p.cellKey("fig8").Str("pattern", pattern).
			Str("kind", kind.String()).Int("faults", faults).Int("topo", i)
	}
	cells := p.schemeCells(key, kind, faults,
		func(topo *topology.Topology, sch Scheme, seed int64) ([]float64, bool) {
			_, m := p.synthetic(topo, sch, pattern, LowLoadRate, seed, 2*int(sch))
			return []float64{m.AvgLatency, m.MaxLatency}, m.Delivered != 0
		})
	row := Fig8Row{Pattern: pattern, Kind: kind, Faults: faults, Sampled: len(cells)}
	row.AvgNorm, row.AvgAbs = normToTree(cells, 0)
	row.MaxNorm, _ = normToTree(cells, 1)
	return row
}

func fig8Table(rows []Fig8Row) Table {
	t := Table{
		Title: fmt.Sprintf("Fig 8: low-load latency normalized to spanning tree (rate %.2f flits/node/cycle)", LowLoadRate),
		Cols: []Column{
			{"pattern", "%-16s", "pattern"}, {"kind", "%-8s", "kind"}, {"faults", "%-7d", "faults"},
			{"eVC avg", "%-10.3f", "evc_avg_norm"}, {"SB avg", "%-10.3f", "sb_avg_norm"},
			{"eVC max", "%-10.3f", "evc_max_norm"}, {"SB max", "%-10.3f", "sb_max_norm"},
			{"tree(cyc)", "%-9.1f", "tree_avg_cycles"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Pattern, r.Kind, r.Faults,
			r.AvgNorm[EscapeVC], r.AvgNorm[StaticBubble],
			r.MaxNorm[EscapeVC], r.MaxNorm[StaticBubble], r.AvgAbs, r.Sampled})
	}
	return t
}

// Fig8CSV emits the low-load latency sweep as CSV (bench/ digests it).
func Fig8CSV(w io.Writer, rows []Fig8Row) error { return fig8Table(rows).WriteCSV(w) }

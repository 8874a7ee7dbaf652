package experiments

import (
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Fig12Row is one scatter point: application throughput of escape VC and
// Static Bubble normalized to the spanning tree, for one Rodinia-like
// workload at one fault count.
type Fig12Row struct {
	App    string
	Kind   topology.FaultKind
	Faults int
	// Norm is application throughput normalized to spanning tree.
	Norm    [3]float64
	Sampled int
}

// Fig12 reproduces the Rodinia application-throughput scatter (paper
// Fig. 12): synthetic Rodinia-like traces over increasing link and router
// faults, only on topologies that keep the memory controller reachable.
// Nil arguments select the paper's ranges.
func Fig12(p Params, apps []traffic.AppProfile, faultSteps map[topology.FaultKind][]int) []Fig12Row {
	p = p.withDefaults()
	if apps == nil {
		apps = traffic.Rodinia()
	}
	if faultSteps == nil {
		faultSteps = map[topology.FaultKind][]int{
			topology.LinkFaults:   {2, 10, 20, 30, 40},
			topology.RouterFaults: {2, 5, 10, 15, 20},
		}
	}
	var rows []Fig12Row
	for _, app := range apps {
		for _, kind := range []topology.FaultKind{topology.LinkFaults, topology.RouterFaults} {
			for _, k := range faultSteps[kind] {
				rows = append(rows, fig12Point(p, app, kind, k))
			}
		}
	}
	return rows
}

func fig12Point(p Params, app traffic.AppProfile, kind topology.FaultKind, faults int) Fig12Row {
	key := func(i int) *sweep.Key {
		return p.cellKey("fig12").Str("app", app.Name).
			Str("kind", kind.String()).Int("faults", faults).Int("topo", i)
	}
	cells := p.schemeCells(key, kind, faults,
		func(topo *topology.Topology, sch Scheme, seed int64) ([]float64, bool) {
			if !mcReachable(topo) {
				return nil, false // skipped: the paper only maps apps on usable chips
			}
			_, out := p.application(topo, sch, app, seed)
			return []float64{out.Throughput}, sch != SpanningTree || out.Throughput != 0
		})
	row := Fig12Row{App: app.Name, Kind: kind, Faults: faults, Sampled: len(cells)}
	row.Norm, _ = normToTree(cells, 0)
	return row
}

func fig12Table(rows []Fig12Row) Table {
	t := Table{
		Title: "Fig 12: Rodinia-like application throughput normalized to spanning tree",
		Cols: []Column{
			{"app", "%-14s", "app"}, {"kind", "%-8s", "kind"}, {"faults", "%-7d", "faults"},
			{"eVC", "%-10.3f", "evc_norm"}, {"SB", "%-10.3f", "sb_norm"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.App, r.Kind, r.Faults, r.Norm[EscapeVC], r.Norm[StaticBubble], r.Sampled})
	}
	return t
}

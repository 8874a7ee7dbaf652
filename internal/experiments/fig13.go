package experiments

import (
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Fig13Row is one PARSEC-like workload's runtime and network EDP, per
// scheme, normalized to the spanning tree, with 4 link faults.
type Fig13Row struct {
	App string
	// RuntimeNorm and EDPNorm are indexed by Scheme.
	RuntimeNorm [3]float64
	EDPNorm     [3]float64
	Sampled     int
}

// Fig13 reproduces the PARSEC full-system comparison (paper Fig. 13):
// application runtime (a) and network EDP (b) with 4 link faults.
// Nil apps selects the built-in PARSEC-like profiles.
func Fig13(p Params, apps []traffic.AppProfile) []Fig13Row {
	p = p.withDefaults()
	if apps == nil {
		apps = traffic.Parsec()
	}
	const faults = 4
	var rows []Fig13Row
	for _, app := range apps {
		key := func(i int) *sweep.Key {
			return p.cellKey("fig13").Str("app", app.Name).
				Int("faults", faults).Int("topo", i)
		}
		cells := p.schemeCells(key, topology.LinkFaults, faults,
			func(topo *topology.Topology, sch Scheme, seed int64) ([]float64, bool) {
				if !mcReachable(topo) {
					return nil, false
				}
				inst, out := p.application(topo, sch, app, seed)
				runtime := float64(out.Runtime)
				return []float64{runtime, inst.energyOver(inst.Sim.Now).EDP(runtime)}, out.Runtime != 0
			})
		row := Fig13Row{App: app.Name, Sampled: len(cells)}
		row.RuntimeNorm, _ = normToTree(cells, 0)
		row.EDPNorm, _ = normToTree(cells, 1)
		rows = append(rows, row)
	}
	return rows
}

func fig13Table(rows []Fig13Row) Table {
	t := Table{
		Title: "Fig 13: PARSEC-like runtime (a) and network EDP (b), 4 link faults, normalized to spanning tree",
		Cols: []Column{
			{"app", "%-16s", "app"},
			{"eVC runtime", "%-12.3f", "evc_runtime_norm"}, {"SB runtime", "%-12.3f", "sb_runtime_norm"},
			{"eVC EDP", "%-10.3f", "evc_edp_norm"}, {"SB EDP", "%-10.3f", "sb_edp_norm"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.App, r.RuntimeNorm[EscapeVC], r.RuntimeNorm[StaticBubble],
			r.EDPNorm[EscapeVC], r.EDPNorm[StaticBubble], r.Sampled})
	}
	return t
}

package experiments

import (
	"repro/internal/energy"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Fig10Row is one energy bar of the Fig. 10 chart: the four-way breakdown
// for one scheme at one power-gated-router count, averaged over sampled
// topologies and normalized to the spanning tree's total at the same
// fault count.
type Fig10Row struct {
	FaultyRouters int
	Scheme        Scheme
	// Normalized components (sum = Total).
	LinkDynamic   float64
	RouterDynamic float64
	LinkLeakage   float64
	RouterLeakage float64
	Total         float64
	Sampled       int
}

// Fig10 reproduces the network-energy comparison (paper Fig. 10) at low
// load across power-gated router counts (nil selects the paper's
// 2/7/15/30).
func Fig10(p Params, gatedRouters []int) []Fig10Row {
	p = p.withDefaults()
	if gatedRouters == nil {
		gatedRouters = []int{2, 7, 15, 30}
	}
	var rows []Fig10Row
	for _, k := range gatedRouters {
		key := func(i int) *sweep.Key {
			return p.cellKey("fig10").Int("gated", k).Int("topo", i)
		}
		cells := p.schemeCells(key, topology.RouterFaults, k,
			func(topo *topology.Topology, sch Scheme, seed int64) ([]float64, bool) {
				inst, m := p.synthetic(topo, sch, "uniform_random", LowLoadRate, seed, 2*int(sch))
				b := inst.energyOver(m.Cycles)
				return []float64{b.RouterDynamic, b.LinkDynamic, b.RouterLeakage, b.LinkLeakage}, true
			})
		if len(cells) == 0 {
			continue
		}
		// Sum each component over the topologies, then normalize the
		// means to the tree's mean total — not a mean of per-topology
		// ratios, so this reduction is not normToTree.
		var sum [3]energy.Breakdown
		for _, c := range cells {
			for _, sch := range Schemes {
				sum[sch].RouterDynamic += c.V[sch][0]
				sum[sch].LinkDynamic += c.V[sch][1]
				sum[sch].RouterLeakage += c.V[sch][2]
				sum[sch].LinkLeakage += c.V[sch][3]
			}
		}
		n := float64(len(cells))
		treeTotal := sum[SpanningTree].Total() / n
		for _, sch := range Schemes {
			b := sum[sch]
			norm := func(v float64) float64 { return safeRatio(v/n, treeTotal) }
			rows = append(rows, Fig10Row{
				FaultyRouters: k,
				Scheme:        sch,
				LinkDynamic:   norm(b.LinkDynamic),
				RouterDynamic: norm(b.RouterDynamic),
				LinkLeakage:   norm(b.LinkLeakage),
				RouterLeakage: norm(b.RouterLeakage),
				Total:         norm(b.Total()),
				Sampled:       len(cells),
			})
		}
	}
	return rows
}

func fig10Table(rows []Fig10Row) Table {
	t := Table{
		Title: "Fig 10: network energy, normalized to spanning-tree total per fault count",
		Cols: []Column{
			{"gated", "%-8d", "gated_routers"}, {"scheme", "%-14s", "scheme"},
			{"linkDyn", "%-9.3f", "link_dynamic"}, {"rtrDyn", "%-9.3f", "router_dynamic"},
			{"linkLeak", "%-9.3f", "link_leakage"}, {"rtrLeak", "%-9.3f", "router_leakage"},
			{"total", "%-7.3f", "total"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.FaultyRouters, r.Scheme, r.LinkDynamic, r.RouterDynamic,
			r.LinkLeakage, r.RouterLeakage, r.Total, r.Sampled})
	}
	return t
}

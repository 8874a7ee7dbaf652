package experiments

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Fig11HighLoadRate drives the network into the deadlock-prone regime for
// the detection-threshold sweep.
const Fig11HighLoadRate = 0.30

// Fig11Row is one point of the t_DD sweep at high load with 20 router
// faults: probes sent over the horizon and per-class link utilization.
type Fig11Row struct {
	TDD        int64
	ProbesSent float64 // average over topologies
	Recoveries float64
	// Utilization fractions by class over the horizon.
	FlitUtil       float64
	ProbeUtil      float64
	DisableUtil    float64
	EnableUtil     float64
	CheckProbeUtil float64
	// AvgLatency of delivered packets (cycles), to confirm the threshold
	// does not affect steady behaviour.
	AvgLatency float64
	Sampled    int
}

// Fig11 reproduces the deadlock-detection-threshold sweep (paper
// Fig. 11): Static Bubble only, high-load uniform random traffic, 20
// router faults, 10K-cycle horizon. Nil thresholds select
// {5, 10, 20, 34, 60, 100, 200}.
func Fig11(p Params, thresholds []int64) []Fig11Row {
	p = p.withDefaults()
	if thresholds == nil {
		thresholds = []int64{5, 10, 20, 34, 60, 100, 200}
	}
	const faults = 20
	var rows []Fig11Row
	for _, tdd := range thresholds {
		type res struct {
			Probes, Recov, Lat float64
			Util               [network.NumLinkClasses]float64
		}
		pp := p
		pp.TDD = tdd
		key := func(i int) *sweep.Key {
			return pp.cellKey("fig11").
				Float("rate", Fig11HighLoadRate).Int("faults", faults).Int("topo", i)
		}
		results := sweep.Run(p.engine(), p.Topologies, key,
			func(i int, seed int64) (res, error) {
				topo := p.SampleTopology(topology.RouterFaults, faults, i)
				inst, m := pp.synthetic(topo, StaticBubble, "uniform_random", Fig11HighLoadRate, seed, 0)
				var r res
				r.Probes = float64(m.Stats.ProbesSent)
				r.Recov = float64(m.Stats.DeadlockRecoveries)
				r.Lat = m.AvgLatency
				r.Util = m.Stats.LinkUtilization(m.Cycles, inst.Sim.AliveDirectedLinkCount())
				return r, nil
			})
		row := Fig11Row{TDD: tdd}
		n := 0
		for _, res := range results {
			if !res.OK() {
				continue
			}
			r := res.Value
			n++
			row.ProbesSent += r.Probes
			row.Recoveries += r.Recov
			row.AvgLatency += r.Lat
			row.FlitUtil += r.Util[network.ClassFlit]
			row.ProbeUtil += r.Util[network.ClassProbe]
			row.DisableUtil += r.Util[network.ClassDisable]
			row.EnableUtil += r.Util[network.ClassEnable]
			row.CheckProbeUtil += r.Util[network.ClassCheckProbe]
		}
		if n > 0 {
			f := float64(n)
			row.ProbesSent /= f
			row.Recoveries /= f
			row.AvgLatency /= f
			row.FlitUtil /= f
			row.ProbeUtil /= f
			row.DisableUtil /= f
			row.EnableUtil /= f
			row.CheckProbeUtil /= f
		}
		row.Sampled = n
		rows = append(rows, row)
	}
	return rows
}

func fig11Table(rows []Fig11Row) Table {
	t := Table{
		Title: fmt.Sprintf("Fig 11: t_DD sweep at high load (rate %.2f, 20 router faults)", Fig11HighLoadRate),
		Cols: []Column{
			{"tDD", "%-6d", "tdd"}, {"probes", "%-10.0f", "probes_sent"}, {"recov", "%-10.1f", "recoveries"},
			{"flit%", "%-9.2f", ""}, {"probe%", "%-9.3f", ""}, {"disable%", "%-9.4f", ""},
			{"enable%", "%-9.4f", ""}, {"chkprb%", "%-9.4f", ""},
			{"", "", "flit_util"}, {"", "", "probe_util"}, {"", "", "disable_util"},
			{"", "", "enable_util"}, {"", "", "check_probe_util"},
			{"avgLat", "%-9.1f", "avg_latency"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.TDD, r.ProbesSent, r.Recoveries,
			100 * r.FlitUtil, 100 * r.ProbeUtil, 100 * r.DisableUtil, 100 * r.EnableUtil, 100 * r.CheckProbeUtil,
			r.FlitUtil, r.ProbeUtil, r.DisableUtil, r.EnableUtil, r.CheckProbeUtil,
			r.AvgLatency, r.Sampled})
	}
	return t
}

package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/disha"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// FailureTimelineRow is one scheme's outcome when links keep failing
// during a run: the spanning-tree schemes pay a reconfiguration stall
// per failure (the paper cites thousands of cycles for tree
// reconstruction, Section I/II); Static Bubble needs none.
type FailureTimelineRow struct {
	// Label names the design: the three Scheme variants plus "disha"
	// (the Section II-B token scheme, included to complete the paper's
	// argument — it cannot recover at all once a failure breaks its
	// token path).
	Label string
	// ReconfigStall is the cycles of injection downtime charged to this
	// scheme per failure event.
	ReconfigStall int
	Delivered     int64
	AvgLatency    float64
	P99Latency    float64
	Lost          int64
	// RecoveryIntact is the fraction of runs that ended with the scheme's
	// deadlock-recovery capability still functional. The tree and SB
	// schemes rebuild or never depended on global structures; DISHA's
	// fixed token path is typically severed by the failures, leaving any
	// later deadlock unrecoverable even though this run's light traffic
	// never wedged.
	RecoveryIntact float64
	Sampled        int
}

// failureEvents is the number of link failures in one timeline, spread
// evenly over the warmup and measurement windows.
const failureEvents = 6

// FailureTimeline is an extension experiment quantifying the paper's
// reconfiguration argument: inject failureEvents link failures during
// live traffic and charge tree-based schemes (baseline 1's up/down tree
// and baseline 2's escape tree) churn's churnTreeStall cycles of
// reconfiguration per failure ("1000s of cycles", Section I). Static
// Bubble only pays the universal NI-table refresh (modeled as free for
// all schemes, per the paper's own zero-cost assumption for that part).
func FailureTimeline(p Params) []FailureTimelineRow {
	p = p.withDefaults()
	var rows []FailureTimelineRow
	kinds := []int{int(SpanningTree), int(EscapeVC), int(StaticBubble), dishaKind}
	for _, k := range kinds {
		stall := churnTreeStall
		label := ""
		switch k {
		case dishaKind:
			label = "disha"
			stall = 0 // DISHA has no reconfiguration story at all
		case int(StaticBubble):
			label = StaticBubble.String()
			stall = 0 // plug-and-play: no tree to rebuild
		default:
			label = Scheme(k).String()
		}
		row := FailureTimelineRow{Label: label, ReconfigStall: stall}
		key := func(i int) *sweep.Key {
			return p.cellKey("failures").Str("scheme", label).
				Int("stall", stall).Int("events", failureEvents).Int("topo", i)
		}
		results := sweep.Run(p.engine(), p.Topologies, key,
			func(i int, seed int64) (failureRes, error) {
				return failureRun(p, k, stall, seed), nil
			})
		var avg, p99 []float64
		intact := 0
		for _, res := range results {
			if !res.OK() || !res.Value.OK {
				continue
			}
			r := res.Value
			row.Delivered += r.Delivered
			row.Lost += r.Lost
			avg = append(avg, r.Avg)
			p99 = append(p99, r.P99)
			if r.Intact {
				intact++
			}
			row.Sampled++
		}
		row.AvgLatency = mean(avg)
		row.P99Latency = mean(p99)
		if row.Sampled > 0 {
			row.RecoveryIntact = float64(intact) / float64(row.Sampled)
		}
		rows = append(rows, row)
	}
	return rows
}

// dishaKind extends the Scheme space for this experiment only.
const dishaKind = 3

// failureRes is one topology's outcome of a failure timeline (exported
// fields: it is the sweep cache's entry value).
type failureRes struct {
	Delivered, Lost int64
	Avg, P99        float64
	Intact          bool
	OK              bool
}

// failureRun executes one scheme over one failure timeline.
func failureRun(p Params, kind, stall int, seed int64) (out failureRes) {
	topo := topology.NewMesh(p.Width, p.Height)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(sweep.SubSeed(seed, 0))))

	// Scheme runtime state, rebuilt at every failure.
	var ud *routing.UpDown
	var alg routing.Algorithm
	rebuild := func() {
		switch kind {
		case int(SpanningTree):
			ud = routing.NewUpDownRooted(topo, routing.RootLowestID)
			alg = ud.TreeAlgorithm()
		case int(EscapeVC):
			ud = routing.NewUpDown(topo)
			alg = routing.NewMinimal(topo)
		default: // StaticBubble and DISHA both route minimally
			alg = routing.NewMinimal(topo)
		}
	}
	rebuild()
	var esc *escape.Controller
	switch kind {
	case int(EscapeVC):
		esc = escape.Attach(s, ud)
	case int(StaticBubble):
		core.Attach(s, core.Options{TDD: p.TDD, Spin: p.SpinMode})
	}
	var dishaCtl *disha.Controller
	if kind == dishaKind {
		var err error
		dishaCtl, err = disha.Attach(s, disha.Options{Timeout: p.TDD})
		if err != nil {
			out.OK = false
			return out
		}
	}
	mgr := reconfig.New(s)

	var lat stats.Sample
	s.OnDeliver = func(pk *network.Packet) { lat.Add(float64(pk.Latency())) }

	st := traffic.NewStream(rand.New(rand.NewSource(sweep.SubSeed(seed, 1))))
	rng := st.Rand()
	horizon := p.WarmupCycles + p.MeasureCycles
	failEvery := horizon / (failureEvents + 1)
	stallUntil := 0
	// Below every scheme's saturation so the comparison isolates
	// reconfiguration downtime, not congestion (tree saturates near
	// 0.06 flits/node/cycle; this offers ~0.024).
	offer := traffic.NewBernoulli(0.008)
	// Only links fail here, so the routers that draw are fixed.
	alive := topo.AliveRouters()
	Run(s, SourceFunc(func(s *network.Sim) {
		cyc := int(s.Now)
		if cyc > 0 && cyc%failEvery == 0 && cyc/failEvery <= failureEvents {
			// Fail a random alive link; the manager repairs or drops
			// affected traffic, then the scheme rebuilds its structures.
			links := topo.AliveUndirectedLinks()
			l := links[rng.Intn(len(links))]
			mgr.Submit(reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir})
			rebuild()
			if esc != nil {
				// Escaped packets must follow the new tree.
				esc.SetTree(ud)
			}
			stallUntil = cyc + stall
		}
		if cyc < stallUntil {
			return
		}
		for i := st.Next(offer, 0, len(alive)); i < len(alive); i = st.Next(offer, i+1, len(alive)) {
			src := alive[i]
			dst := geom.NodeID(rng.Intn(topo.NumNodes()))
			if dst == src || !topo.RouterAlive(dst) {
				continue
			}
			if r, ok := alg.Route(src, dst, rng); ok {
				ln := 1
				if rng.Intn(2) == 0 {
					ln = network.VCDepth
				}
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(network.NumVnets), ln, r))
			} else {
				s.Drop()
			}
		}
	}), Phases{Warmup: p.WarmupCycles, Measure: p.MeasureCycles, Drain: 20 * horizon})
	out.Delivered = s.Stats.Delivered
	out.Lost = s.Stats.Lost
	out.Avg = lat.Mean()
	out.P99 = lat.Percentile(99)
	out.Intact = dishaCtl == nil || dishaCtl.TokenPathIntact()
	out.OK = s.Stats.Delivered > 0
	return out
}

func failuresTable(rows []FailureTimelineRow) Table {
	t := Table{
		Title: "Failure timeline: live link failures with per-failure reconfiguration stalls",
		Cols: []Column{
			{"scheme", "%-14s", "scheme"}, {"stall", "%-9d", "stall"}, {"delivered", "%-12d", "delivered"},
			{"avgLat", "%-10.1f", "avg_latency"}, {"p99Lat", "%-10.1f", "p99_latency"}, {"lost", "%-6d", "lost"},
			{"recovery-intact", "%-15.0f", ""}, {"", "", "recovery_intact"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Label, r.ReconfigStall, r.Delivered, r.AvgLatency, r.P99Latency, r.Lost,
			100 * r.RecoveryIntact, r.RecoveryIntact, r.Sampled})
	}
	return t
}

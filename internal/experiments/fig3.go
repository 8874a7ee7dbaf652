package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/deadlock"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Fig3Row is one heat-map column: for a given number of faulty links, the
// cumulative fraction of sampled topologies that have deadlocked at or
// below each injection rate.
type Fig3Row struct {
	FaultyLinks int
	// Rates are the swept injection rates (flits/node/cycle).
	Rates []float64
	// CumulativeDeadlocked[i] is the fraction of topologies that deadlock
	// at rate ≤ Rates[i].
	CumulativeDeadlocked []float64
	Sampled              int
}

// Fig3 reproduces the deadlock-onset heat map (paper Fig. 3): minimal
// adaptive routing with no recovery, uniform random traffic, operational
// deadlock detection; per topology the lowest injection rate that
// deadlocks within the horizon is recorded. faultCounts nil selects
// {1, 5, ..., 45}; rates nil selects 0.02..0.40 step 0.02.
func Fig3(p Params, faultCounts []int, rates []float64) []Fig3Row {
	p = p.withDefaults()
	if faultCounts == nil {
		faultCounts = stepRange(1, 45, 4)
	}
	if rates == nil {
		for r := 0.02; r <= 0.401; r += 0.02 {
			rates = append(rates, math.Round(r*100)/100)
		}
	}
	var rows []Fig3Row
	for _, k := range faultCounts {
		key := func(i int) *sweep.Key {
			return p.cellKey("fig3").
				Int("faults", k).Floats("rates", rates).Int("topo", i)
		}
		// Each job reports the index into rates at which its topology
		// first deadlocked, or len(rates) if it never did.
		onset := sweep.Run(p.engine(), p.Topologies, key,
			func(i int, seed int64) (int, error) {
				topo := p.SampleTopology(topology.LinkFaults, k, i)
				if !topo.HasTopologyCycle() {
					return len(rates), nil // acyclic: can never deadlock
				}
				for ri, rate := range rates {
					if deadlocksAt(p, topo, rate, sweep.SubSeed(seed, ri)) {
						return ri, nil
					}
				}
				return len(rates), nil
			})
		sampled := 0
		for _, o := range onset {
			if o.OK() {
				sampled++
			}
		}
		cum := make([]float64, len(rates))
		for ri := range rates {
			n := 0
			for _, o := range onset {
				if o.OK() && o.Value <= ri {
					n++
				}
			}
			if sampled > 0 {
				cum[ri] = float64(n) / float64(sampled)
			}
		}
		rows = append(rows, Fig3Row{
			FaultyLinks:          k,
			Rates:                rates,
			CumulativeDeadlocked: cum,
			Sampled:              sampled,
		})
	}
	return rows
}

// deadlocksAt runs minimal-routing traffic with no recovery scheme at the
// given rate and reports whether the operational detector fires within
// the measurement horizon.
func deadlocksAt(p Params, topo *topology.Topology, rate float64, seed int64) bool {
	// The unprotected network: minimal routes, no recovery scheme.
	p = p.withDefaults()
	s := network.New(topo, network.Config{Shards: p.Shards}, rand.New(rand.NewSource(seed)))
	alive := topo.AliveRouters()
	inj := traffic.NewInjector(alive, routing.MinimalFor(topo), traffic.NewUniformRandom(alive), rate,
		rand.New(rand.NewSource(seed+7777)))
	horizon := p.WarmupCycles + p.MeasureCycles
	for c := 0; c < horizon; c++ {
		inj.Tick(s)
		s.Step()
		// The exact drainability analyzer catches localized deadlocks that
		// a global-progress watcher would miss while unrelated traffic
		// still flows.
		if c%500 == 499 && deadlock.IsDeadlocked(s) {
			return true
		}
	}
	return deadlock.IsDeadlocked(s)
}

// fig3Tables renders the heat map twice: a rate × fault-count grid of
// cumulative deadlock percentages for reading, and one (faults, rate)
// record per cell for machines.
func fig3Tables(rows []Fig3Row) []Table {
	grid := Table{
		Title: "Fig 3: cumulative % of topologies deadlocked at injection rate (uniform random)",
		Cols:  []Column{{Head: "rate", Verb: "%-6.2f"}},
	}
	long := Table{Cols: []Column{
		{CSV: "faulty_links"}, {CSV: "rate"}, {CSV: "cumulative_deadlocked"}, {CSV: "sampled"},
	}}
	for _, r := range rows {
		grid.Cols = append(grid.Cols, Column{Head: fmt.Sprintf("L=%d", r.FaultyLinks), Verb: "%-6.0f"})
		for ri, rate := range r.Rates {
			long.Rows = append(long.Rows, []any{r.FaultyLinks, rate, r.CumulativeDeadlocked[ri], r.Sampled})
		}
	}
	if len(rows) > 0 {
		for ri, rate := range rows[0].Rates {
			line := []any{rate}
			for _, r := range rows {
				line = append(line, 100*r.CumulativeDeadlocked[ri])
			}
			grid.Rows = append(grid.Rows, line)
		}
	}
	return []Table{grid, long}
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/network"
	"repro/internal/perturb"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// AdversaryResult bundles the search outcome with the space it searched
// (needed to render gene indices as physical settings).
type AdversaryResult struct {
	Space  adversary.Space
	Result adversary.Result
}

// Adversary runs the worst-case SLO search: an adversarial hill climb
// over (topology faults × traffic × control-plane perturbation), with
// every candidate evaluated as a full Static Bubble simulation on the
// sweep engine. Each generation's candidate batch is one sweep.Run, so
// evaluations parallelize across workers and land in the on-disk result
// cache under gene-content keys — a repeated or resumed search replays
// instantly.
func Adversary(p Params, cfg adversary.Config) (AdversaryResult, error) {
	p = p.withDefaults()
	if cfg.Space.Topologies == 0 {
		cfg.Space = adversary.DefaultSpace()
	}
	sp := cfg.Space
	eng := p.engine()

	eval := func(genes []adversary.Gene) []adversary.Outcome {
		key := func(i int) *sweep.Key { return adversaryCellKey(p, sp, genes[i]) }
		results := sweep.Run(eng, len(genes), key,
			func(i int, seed int64) (adversary.Outcome, error) {
				return adversaryEvaluate(p, sp, genes[i], seed), nil
			})
		outs := make([]adversary.Outcome, len(genes))
		for i, r := range results {
			if r.OK() {
				outs[i] = r.Value
			}
			// A cancelled or panicked cell scores zero: the search simply
			// never climbs toward it.
		}
		return outs
	}

	res, err := adversary.Search(cfg, eval)
	return AdversaryResult{Space: sp, Result: res}, err
}

// adversaryCellKey is the cache/seed identity of one gene evaluation. It
// encodes the gene's physical settings (not its indices), so reshaping
// the search space never aliases or orphans cached cells.
func adversaryCellKey(p Params, sp adversary.Space, g adversary.Gene) *sweep.Key {
	return p.cellKey("adversary").
		Str("kind", sp.FaultKinds[g.Kind]).
		Int("faults", sp.FaultCounts[g.Faults]).
		Int("topo", g.Topo).
		Str("pattern", sp.Patterns[g.Pattern]).
		Str("traffic", sp.Traffics[g.Traffic]).
		Float("rate", sp.Rates[g.Rate]).
		Float("loss", sp.Loss[g.Loss]).
		Float("jitter", sp.Jitter[g.Jitter]).
		Float("reorder", sp.Reorder[g.Reorder]).
		Float("dup", sp.Dup[g.Dup])
}

// adversaryEvaluate measures one gene: build the damaged topology,
// attach Static Bubble behind the configured perturber, drive the
// configured traffic process for warmup+measure, then attempt a bounded
// drain to detect a wedged network. Deterministic per (gene, seed).
func adversaryEvaluate(p Params, sp adversary.Space, g adversary.Gene, seed int64) adversary.Outcome {
	kind := topology.LinkFaults
	if sp.FaultKinds[g.Kind] == "router" {
		kind = topology.RouterFaults
	}
	faults := sp.FaultCounts[g.Faults]
	if max := topology.MaxFaults(p.Width, p.Height, kind); faults > max {
		faults = max
	}
	topo := p.SampleTopology(kind, faults, g.Topo)

	s := network.New(topo, network.Config{Shards: p.Shards}, rand.New(rand.NewSource(sweep.SubSeed(seed, 0))))
	knobs := perturb.Knobs{
		Loss:    sp.Loss[g.Loss],
		Jitter:  sp.Jitter[g.Jitter],
		Reorder: sp.Reorder[g.Reorder],
		Dup:     sp.Dup[g.Dup],
	}
	var pb *perturb.Perturber
	var pbIface core.Perturber
	if !knobs.IsZero() {
		pb = perturb.New(perturb.Config{Default: knobs, Seed: sweep.SubSeed(seed, 1)})
		pbIface = pb
	}
	c := core.Attach(s, core.Options{TDD: p.TDD, Spin: p.SpinMode, Perturb: pbIface})
	inst := &Instance{Scheme: StaticBubble, Sim: s, Alg: routing.MinimalFor(topo), SB: c}

	alive := topo.AliveRouters()
	pattern := inst.Pattern(sp.Patterns[g.Pattern])
	rate := sp.Rates[g.Rate]
	var inj interface{ Tick(*network.Sim) }
	switch sp.Traffics[g.Traffic] {
	case "pareto":
		inj = traffic.NewParetoOnOff(alive, inst.Alg, pattern, rate,
			rand.New(rand.NewSource(sweep.SubSeed(seed, 2))))
	case "tenants":
		// Two-tenant mix: a latency-sensitive control-heavy class plus a
		// bulk class on the chosen pattern, splitting the gene's rate.
		inj = traffic.NewTenantMix(alive, inst.Alg, []traffic.TenantClass{
			{Name: "latency", Pattern: traffic.NewUniformRandom(alive), RateFlits: rate * 0.3,
				CtrlFraction: 0.9, CtrlVnet: 0, DataVnet: 1},
			{Name: "bulk", Pattern: pattern, RateFlits: rate * 0.7,
				CtrlFraction: 0.1, DataLen: 5, CtrlVnet: 2, DataVnet: 2},
		}, sweep.SubSeed(seed, 2))
	default: // "bernoulli"
		inj = inst.Injector(pattern, rate, sweep.SubSeed(seed, 2))
	}

	m := measure(p, inst, inj)

	var out adversary.Outcome
	out.Recoveries = m.Stats.DeadlockRecoveries
	out.DeadlockFreq = float64(m.Stats.DeadlockRecoveries) / float64(m.Cycles) * 1000
	out.AvgLatency = m.AvgLatency
	out.Delivered = m.Delivered
	var sample stats.Sample
	for _, r := range c.RecoveryRecords() {
		sample.Add(float64(r.Duration))
	}
	out.RecoveryP50 = sample.Percentile(50)
	out.RecoveryP99 = sample.Percentile(99)
	out.Wedged = deadlock.DrainWedged(s)
	return out
}

// adversaryConfig builds the search configuration for a scale preset;
// evals caps unique simulations (0 keeps the preset default).
func adversaryConfig(quick bool, seed int64, evals int) adversary.Config {
	cfg := adversary.Config{Seed: seed}
	if quick {
		cfg.Restarts, cfg.Generations, cfg.Neighbors = 2, 3, 2
		cfg.MaxEvals, cfg.TopK = 12, 8
	} else {
		cfg.Restarts, cfg.Generations, cfg.Neighbors = 4, 8, 3
		cfg.MaxEvals, cfg.TopK = 80, 12
	}
	if evals > 0 {
		cfg.MaxEvals = evals
	}
	return cfg
}

// adversaryTable renders the worst-case SLO table. The text view
// describes each scenario in one column and the CSV spells out its ten
// genes; the CSV cells keep their fixed precisions as pre-formatted
// strings.
func adversaryTable(r AdversaryResult) Table {
	t := Table{
		Title: fmt.Sprintf("Adversarial worst-case SLO search (%d unique evals, %d proposals)",
			r.Result.Evals, r.Result.Proposed),
		Cols: []Column{
			{Head: "score", Verb: "%-9.1f"}, {Head: "scenario", Verb: "%-44s"},
			{CSV: "score"}, {CSV: "kind"}, {CSV: "faults"}, {CSV: "topo"}, {CSV: "pattern"}, {CSV: "traffic"},
			{CSV: "rate"}, {CSV: "loss"}, {CSV: "jitter"}, {CSV: "reorder"}, {CSV: "dup"},
			{"recov", "%-8d", "recoveries"},
			{Head: "rec/kcy", Verb: "%-8.3f"}, {Head: "p50", Verb: "%-8.0f"}, {Head: "p99", Verb: "%-8.0f"},
			{Head: "avg_lat", Verb: "%-9.1f"},
			{CSV: "recoveries_per_kcycle"}, {CSV: "recovery_p50"}, {CSV: "recovery_p99"},
			{CSV: "avg_latency"}, {CSV: "delivered"},
			{"wedged", "%v", "wedged"},
		},
	}
	sp := r.Space
	f3 := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, e := range r.Result.Table {
		g, o := e.Gene, e.Outcome
		t.Rows = append(t.Rows, []any{
			o.Score(), sp.Describe(g),
			fmt.Sprintf("%.2f", o.Score()), sp.FaultKinds[g.Kind], sp.FaultCounts[g.Faults], g.Topo,
			sp.Patterns[g.Pattern], sp.Traffics[g.Traffic],
			f3(sp.Rates[g.Rate]), f3(sp.Loss[g.Loss]), f3(sp.Jitter[g.Jitter]), f3(sp.Reorder[g.Reorder]), f3(sp.Dup[g.Dup]),
			o.Recoveries,
			o.DeadlockFreq, o.RecoveryP50, o.RecoveryP99, o.AvgLatency,
			fmt.Sprintf("%.4f", o.DeadlockFreq), fmt.Sprintf("%.1f", o.RecoveryP50), fmt.Sprintf("%.1f", o.RecoveryP99),
			fmt.Sprintf("%.2f", o.AvgLatency), o.Delivered,
			o.Wedged,
		})
	}
	return t
}

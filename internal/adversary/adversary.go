// Package adversary searches for worst-case operating points of the
// Static Bubble recovery protocol: combinations of topology faults,
// traffic pattern/process, offered load, and control-plane perturbation
// knobs that maximize deadlock frequency and recovery-latency tails.
//
// The search is a batched hill climb with random restarts over a
// quantized gene space. It is deliberately evaluator-agnostic: Search
// takes a batch evaluation callback, and internal/experiments supplies
// the real simulator-backed evaluator (running each batch on the sweep
// engine, so evaluations parallelize and cache like any other sweep
// cell). Everything is deterministic for a fixed Config.Seed as long as
// the evaluator itself is deterministic per gene.
package adversary

import (
	"fmt"
	"sort"
	"strings"
)

// Space quantizes the search dimensions. A Gene indexes into these
// slices, which keeps mutation trivial (±1 on one axis), makes genes
// canonically comparable for memoization, and bounds the search to
// physically meaningful settings.
type Space struct {
	// FaultKinds and FaultCounts select the topology damage; Topologies
	// is the number of sampled instances per (kind, count).
	FaultKinds  []string // "link", "router"
	FaultCounts []int
	Topologies  int
	// Patterns and Traffics name the spatial pattern and arrival process
	// ("bernoulli", "pareto", "tenants"); Rates is the offered load in
	// flits/node/cycle.
	Patterns []string
	Traffics []string
	Rates    []float64
	// Perturbation knob levels (probabilities; zero must be present so
	// the search can turn a knob off).
	Loss, Jitter, Reorder, Dup []float64
}

// DefaultSpace is the standard adversarial search space: the paper's
// fault range, all traffic patterns, Bernoulli vs self-similar arrivals,
// loads from light to past saturation, and perturbation probabilities
// from off to severe.
func DefaultSpace() Space {
	return Space{
		FaultKinds:  []string{"link", "router"},
		FaultCounts: []int{8, 18, 32, 48},
		Topologies:  4,
		Patterns:    []string{"uniform_random", "bit_complement", "transpose", "hotspot"},
		Traffics:    []string{"bernoulli", "pareto", "tenants"},
		Rates:       []float64{0.06, 0.12, 0.2, 0.32},
		Loss:        []float64{0, 0.05, 0.15, 0.3},
		Jitter:      []float64{0, 0.2, 0.5},
		Reorder:     []float64{0, 0.1, 0.3},
		Dup:         []float64{0, 0.1, 0.3},
	}
}

// axes returns the dimension sizes in Gene field order.
func (sp Space) axes() [10]int {
	return [10]int{
		len(sp.FaultKinds), len(sp.FaultCounts), sp.Topologies,
		len(sp.Patterns), len(sp.Traffics), len(sp.Rates),
		len(sp.Loss), len(sp.Jitter), len(sp.Reorder), len(sp.Dup),
	}
}

// Validate reports a configuration error, if any.
func (sp Space) Validate() error {
	for d, n := range sp.axes() {
		if n <= 0 {
			return fmt.Errorf("adversary: space dimension %d is empty", d)
		}
	}
	return nil
}

// Gene is one point of the space: an index per dimension.
type Gene struct {
	Kind, Faults, Topo         int
	Pattern, Traffic, Rate     int
	Loss, Jitter, Reorder, Dup int
}

// fields gives mutation and canonicalization a uniform view.
func (g *Gene) fields() [10]*int {
	return [10]*int{
		&g.Kind, &g.Faults, &g.Topo, &g.Pattern, &g.Traffic, &g.Rate,
		&g.Loss, &g.Jitter, &g.Reorder, &g.Dup,
	}
}

// Key is the canonical memoization identity of a gene.
func (g Gene) Key() string {
	f := g.fields()
	parts := make([]string, len(f))
	for i, p := range f {
		parts[i] = fmt.Sprintf("%d", *p)
	}
	return strings.Join(parts, ".")
}

// Describe renders a gene in the space's own vocabulary.
func (sp Space) Describe(g Gene) string {
	return fmt.Sprintf("%s/%d#%d %s %s@%.2f loss=%.2f jit=%.2f reord=%.2f dup=%.2f",
		sp.FaultKinds[g.Kind], sp.FaultCounts[g.Faults], g.Topo,
		sp.Patterns[g.Pattern], sp.Traffics[g.Traffic], sp.Rates[g.Rate],
		sp.Loss[g.Loss], sp.Jitter[g.Jitter], sp.Reorder[g.Reorder], sp.Dup[g.Dup])
}

// rng is the search's private deterministic stream (splitmix64), so the
// search never depends on global randomness.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// random draws a uniform gene.
func (sp Space) random(r *rng) Gene {
	var g Gene
	for i, p := range g.fields() {
		*p = r.intn(sp.axes()[i])
	}
	return g
}

// mutate perturbs one dimension of g: usually a ±1 step (local search),
// sometimes a uniform redraw of that dimension (escape hatch).
func (sp Space) mutate(g Gene, r *rng) Gene {
	axes := sp.axes()
	d := r.intn(len(axes))
	p := g.fields()[d]
	switch {
	case axes[d] == 1:
		// Degenerate axis: nothing to move; fall through to another call
		// site is pointless, just return unchanged — the dedup layer will
		// discard it.
	case r.intn(4) == 0:
		*p = r.intn(axes[d])
	case r.intn(2) == 0:
		*p = (*p + 1) % axes[d]
	default:
		*p = (*p + axes[d] - 1) % axes[d]
	}
	return g
}

// Outcome is the evaluator's measurement of one gene. All fields are
// maximization targets except Delivered (context only).
type Outcome struct {
	// Recoveries is the completed SB recovery count; DeadlockFreq is
	// recoveries per 1000 simulated cycles.
	Recoveries   int64
	DeadlockFreq float64
	// RecoveryP50/P99 are percentiles of recovery duration (cycles,
	// disable send through enable return).
	RecoveryP50, RecoveryP99 float64
	// AvgLatency is the mean delivered-packet latency in the measurement
	// window; Delivered its packet count.
	AvgLatency float64
	Delivered  int64
	// Wedged reports that the drain phase made no progress: packets
	// remained in flight with no deliveries — the protocol failed to
	// clear the network (the worst possible outcome).
	Wedged bool
}

// Score collapses an outcome into the scalar the search maximizes:
// deadlock frequency dominates, the p99 recovery tail comes next, mean
// latency breaks ties, and a wedged network beats everything — a
// liveness failure is categorically worse than any slow recovery.
func (o Outcome) Score() float64 {
	s := 100*o.DeadlockFreq + o.RecoveryP99 + o.AvgLatency/100
	if o.Wedged {
		s += 1e6
	}
	return s
}

// Entry pairs a gene with its measured outcome in the final SLO table.
type Entry struct {
	Gene    Gene
	Outcome Outcome
}

// stagnation is the number of generations a lineage may go without
// improvement before it restarts from a fresh random gene.
const stagnation = 3

// Config bounds the search.
type Config struct {
	Space Space
	// Restarts is the number of parallel hill-climb lineages;
	// Generations the number of batched steps. Neighbors is the number
	// of mutations proposed per lineage per generation.
	Restarts, Generations, Neighbors int
	// MaxEvals caps total unique gene evaluations (0 = unlimited).
	MaxEvals int
	// TopK is the SLO table size.
	TopK int
	// Seed drives every stochastic choice of the search.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Restarts == 0 {
		c.Restarts = 4
	}
	if c.Generations == 0 {
		c.Generations = 8
	}
	if c.Neighbors == 0 {
		c.Neighbors = 3
	}
	if c.TopK == 0 {
		c.TopK = 10
	}
	return c
}

// Result is the search outcome: the worst-case table (sorted by
// descending score), the best single entry, and evaluation accounting.
type Result struct {
	Table []Entry
	Best  Entry
	// Evals is the number of unique genes evaluated; Proposed the number
	// of mutations generated (duplicates were served from the memo).
	Evals, Proposed int
}

// Search runs the batched hill climb. eval must return one Outcome per
// gene, in order; it is called once per generation with all genes that
// are not already memoized (possibly empty batches are skipped). For a
// fixed cfg and a deterministic eval, Search is deterministic.
func Search(cfg Config, eval func(genes []Gene) []Outcome) (Result, error) {
	cfg = cfg.withDefaults()
	sp := cfg.Space
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	r := &rng{s: uint64(cfg.Seed)*2654435761 + 1}
	memo := map[string]Outcome{}
	var res Result

	evalAll := func(genes []Gene) error {
		var fresh []Gene
		seen := map[string]bool{}
		for _, g := range genes {
			k := g.Key()
			if _, ok := memo[k]; ok || seen[k] {
				continue
			}
			if cfg.MaxEvals > 0 && res.Evals+len(fresh) >= cfg.MaxEvals {
				break
			}
			seen[k] = true
			fresh = append(fresh, g)
		}
		if len(fresh) == 0 {
			return nil
		}
		outs := eval(fresh)
		if len(outs) != len(fresh) {
			return fmt.Errorf("adversary: evaluator returned %d outcomes for %d genes", len(outs), len(fresh))
		}
		for i, g := range fresh {
			memo[g.Key()] = outs[i]
		}
		res.Evals += len(fresh)
		return nil
	}

	// Lineage state: current gene, its score, and stagnation count.
	cur := make([]Gene, cfg.Restarts)
	stag := make([]int, cfg.Restarts)
	for i := range cur {
		cur[i] = sp.random(r)
	}
	if err := evalAll(cur); err != nil {
		return res, err
	}

	budgetLeft := func() bool { return cfg.MaxEvals <= 0 || res.Evals < cfg.MaxEvals }

	for gen := 0; gen < cfg.Generations && budgetLeft(); gen++ {
		// Propose all lineages' neighborhoods, then evaluate the union in
		// one batch (one sweep.Run downstream — full parallelism).
		props := make([][]Gene, cfg.Restarts)
		var batch []Gene
		for li := range cur {
			for n := 0; n < cfg.Neighbors; n++ {
				g := sp.mutate(cur[li], r)
				props[li] = append(props[li], g)
				batch = append(batch, g)
				res.Proposed++
			}
		}
		if err := evalAll(batch); err != nil {
			return res, err
		}
		for li := range cur {
			curScore, ok := memo[cur[li].Key()]
			best, bestScore := cur[li], -1.0
			if ok {
				bestScore = curScore.Score()
			}
			improved := false
			for _, g := range props[li] {
				o, ok := memo[g.Key()]
				if !ok {
					continue // budget-clipped
				}
				if s := o.Score(); s > bestScore {
					best, bestScore, improved = g, s, true
				}
			}
			if improved {
				cur[li], stag[li] = best, 0
				continue
			}
			stag[li]++
			if stag[li] >= stagnation {
				// Local optimum: restart this lineage somewhere fresh.
				cur[li], stag[li] = sp.random(r), 0
				if budgetLeft() {
					if err := evalAll([]Gene{cur[li]}); err != nil {
						return res, err
					}
				}
			}
		}
	}

	// Rank everything ever evaluated; deterministic order (score desc,
	// then key) so ties never depend on map iteration.
	all := make([]Entry, 0, len(memo))
	for k, o := range memo {
		g, err := parseKey(k)
		if err != nil {
			return res, err
		}
		all = append(all, Entry{Gene: g, Outcome: o})
	}
	sort.Slice(all, func(i, j int) bool {
		si, sj := all[i].Outcome.Score(), all[j].Outcome.Score()
		if si != sj {
			return si > sj
		}
		return all[i].Gene.Key() < all[j].Gene.Key()
	})
	if len(all) > cfg.TopK {
		all = all[:cfg.TopK]
	}
	res.Table = all
	if len(all) > 0 {
		res.Best = all[0]
	}
	return res, nil
}

// parseKey inverts Gene.Key.
func parseKey(k string) (Gene, error) {
	var g Gene
	f := g.fields()
	parts := strings.Split(k, ".")
	if len(parts) != len(f) {
		return g, fmt.Errorf("adversary: malformed gene key %q", k)
	}
	for i, p := range parts {
		if _, err := fmt.Sscanf(p, "%d", f[i]); err != nil {
			return g, fmt.Errorf("adversary: malformed gene key %q: %v", k, err)
		}
	}
	return g, nil
}

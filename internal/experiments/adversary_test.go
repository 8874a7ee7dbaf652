package experiments

import (
	"strings"
	"testing"

	"repro/internal/adversary"
)

// tinySpace keeps the smoke search cheap: one fault setting, two
// topologies, aggressive loads, and a couple of knob levels.
func tinySpace() adversary.Space {
	return adversary.Space{
		FaultKinds:  []string{"link"},
		FaultCounts: []int{18},
		Topologies:  2,
		Patterns:    []string{"uniform_random"},
		Traffics:    []string{"bernoulli", "pareto"},
		Rates:       []float64{0.09, 0.15},
		Loss:        []float64{0, 0.2},
		Jitter:      []float64{0, 0.3},
		Reorder:     []float64{0},
		Dup:         []float64{0, 0.2},
	}
}

func tinyParams() Params {
	return Params{
		Width: 8, Height: 8,
		WarmupCycles:  300,
		MeasureCycles: 2000,
		TDD:           24,
	}
}

// TestAdversarySmoke: the end-to-end search runs, produces a non-empty
// sorted SLO table, and is reproducible for a fixed seed and budget —
// the acceptance gate for `sbsweep -fig adversary`.
func TestAdversarySmoke(t *testing.T) {
	cfg := adversary.Config{
		Space: tinySpace(), Restarts: 3, Generations: 4, Neighbors: 3,
		MaxEvals: 24, TopK: 6, Seed: 9,
	}
	r1, err := Adversary(tinyParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Result.Table) == 0 || r1.Result.Evals == 0 {
		t.Fatalf("empty search result: %+v", r1.Result)
	}
	found := false
	for _, e := range r1.Result.Table {
		if e.Outcome.Recoveries > 0 || e.Outcome.Wedged {
			found = true
		}
		if e.Outcome.Wedged {
			// A wedge is a legitimate (and maximal) adversarial finding:
			// per-hop control loss makes full-cycle probe traversal
			// exponentially unlikely, pinning the deadlock in place.
			t.Logf("worst case found: wedged at %s", r1.Space.Describe(e.Gene))
		}
	}
	if !found {
		t.Error("search surfaced neither a recovery nor a wedge — space too tame for an adversary")
	}

	r2, err := Adversary(tinyParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Result.Evals != r2.Result.Evals || len(r1.Result.Table) != len(r2.Result.Table) {
		t.Fatalf("search not reproducible: %+v vs %+v", r1.Result, r2.Result)
	}
	for i := range r1.Result.Table {
		if r1.Result.Table[i] != r2.Result.Table[i] {
			t.Fatalf("table row %d not reproducible:\n%+v\n%+v", i, r1.Result.Table[i], r2.Result.Table[i])
		}
	}

	tbl := adversaryTable(r1)
	if !strings.Contains(renderText(t, tbl), "score") {
		t.Fatal("table print missing header")
	}
	if lines := strings.Count(renderCSV(t, tbl), "\n"); lines != len(r1.Result.Table)+1 {
		t.Fatalf("CSV has %d lines for %d rows", lines, len(r1.Result.Table))
	}
}

// TestAdversaryPerturbationHurts: the same storm scenario must score at
// least as bad (higher) with a lossy control plane as without — sanity
// that the evaluator actually feeds the knobs through to the simulation.
func TestAdversaryPerturbationHurts(t *testing.T) {
	sp := tinySpace()
	p := tinyParams()
	clean := adversaryEvaluate(p, sp, adversary.Gene{Topo: 1, Rate: 1}, 77)
	lossy := adversaryEvaluate(p, sp, adversary.Gene{Topo: 1, Rate: 1, Loss: 1, Jitter: 1, Dup: 1}, 77)
	if clean.Recoveries == 0 {
		t.Skip("baseline scenario triggered no recoveries at this scale")
	}
	if lossy == clean {
		t.Fatal("perturbation knobs had no effect on the evaluation")
	}
}

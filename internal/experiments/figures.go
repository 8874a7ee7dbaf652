package experiments

// Figure is one experiment cmd/sbsweep can run by name.
type Figure struct {
	// ID is the value -fig selects the experiment by.
	ID string
	// Run executes the experiment at paper-default axes and returns what
	// it renders to. quick is the -scale preset; advEvals caps the
	// adversary's unique evaluations (0 = preset default).
	Run func(p Params, quick bool, advEvals int) ([]Table, error)
}

// sweepFig adapts the common case: one table, from Params alone, that
// cannot fail.
func sweepFig(id string, table func(p Params) Table) Figure {
	return Figure{ID: id, Run: func(p Params, _ bool, _ int) ([]Table, error) { return []Table{table(p)}, nil }}
}

// Figures is everything -fig can name, in the order "all" runs them.
var Figures = []Figure{
	sweepFig("t1", func(p Params) Table { return table1Table(Table1(p, nil)) }),
	sweepFig("2", func(p Params) Table { return fig2Table(Fig2(p, nil)) }),
	{ID: "3", Run: func(p Params, _ bool, _ int) ([]Table, error) { return fig3Tables(Fig3(p, nil, nil)), nil }},
	sweepFig("8", func(p Params) Table { return fig8Table(Fig8(p, nil, nil)) }),
	sweepFig("9", func(p Params) Table { return fig9Table(Fig9(p, nil)) }),
	sweepFig("10", func(p Params) Table { return fig10Table(Fig10(p, nil)) }),
	sweepFig("11", func(p Params) Table { return fig11Table(Fig11(p, nil)) }),
	sweepFig("12", func(p Params) Table { return fig12Table(Fig12(p, nil, nil)) }),
	sweepFig("13", func(p Params) Table { return fig13Table(Fig13(p, nil)) }),
	sweepFig("failures", func(p Params) Table { return failuresTable(FailureTimeline(p)) }),
	// Continuous-churn availability/recovery-SLO comparison: Static Bubble
	// vs spanning-tree re-election vs a DBR-style regional stall. Full
	// scale runs the 256-router mesh so a router loss is a 1/256 event,
	// matching the availability framing.
	{ID: "churn", Run: func(p Params, quick bool, _ int) ([]Table, error) {
		cfg := ChurnConfig{}
		if quick {
			cfg = QuickChurn()
		} else {
			p.Width, p.Height = 16, 16
		}
		return []Table{churnTable(cfg, Churn(p, cfg))}, nil
	}},
	sweepFig("scale", func(p Params) Table { return scaleTable(Scale(p, nil)) }),
	// Adversarial worst-case SLO search, reproducible for a fixed base
	// seed and budget; cached cells make a rerun instant.
	{ID: "adversary", Run: func(p Params, quick bool, advEvals int) ([]Table, error) {
		res, err := Adversary(p, adversaryConfig(quick, p.BaseSeed, advEvals))
		return []Table{adversaryTable(res)}, err
	}},
	sweepFig("ablation", func(p Params) Table { return ablationTable(Ablation(p)) }),
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Table1Row compares the buffer cost of Static Bubble and escape VCs on
// one mesh size (paper Table I).
type Table1Row struct {
	Width, Height int
	// SBBuffers is the number of static bubbles placed (Equation 1).
	SBBuffers int
	// EscapeBuffers is the escape-VC overhead: one VC per port per router
	// (n×m×5).
	EscapeBuffers int
	// ClosedFormAgrees records that the closed-form count matches the
	// enumerated placement.
	ClosedFormAgrees bool
	// CoverageVerified records that the placement lemma holds on the full
	// mesh (every no-U-turn cycle passes a bubble router).
	CoverageVerified bool
}

// Table1 reproduces the quantitative half of Table I for the given mesh
// sizes (nil selects the paper's 8×8 and 16×16). p contributes only the
// sweep engine; the placement analysis has no tunable parameters.
func Table1(p Params, sizes [][2]int) []Table1Row {
	if sizes == nil {
		sizes = [][2]int{{8, 8}, {16, 16}}
	}
	key := func(i int) *sweep.Key {
		return sweep.NewKey("table1").Int("w", sizes[i][0]).Int("h", sizes[i][1])
	}
	results := sweep.Run(p.engine(), len(sizes), key,
		func(i int, seed int64) (Table1Row, error) {
			w, h := sizes[i][0], sizes[i][1]
			topo := topology.NewMesh(w, h)
			return Table1Row{
				Width: w, Height: h,
				SBBuffers:        core.PlacementCount(w, h),
				EscapeBuffers:    w * h * geom.NumPorts,
				ClosedFormAgrees: core.PlacementCount(w, h) == core.PlacementCountClosedForm(w, h),
				CoverageVerified: core.VerifyCoverage(topo),
			}, nil
		})
	var rows []Table1Row
	for _, r := range results {
		if r.OK() {
			rows = append(rows, r.Value)
		}
	}
	return rows
}

func table1Table(rows []Table1Row) Table {
	t := Table{
		Title: "Table I: additional buffers, Static Bubble vs escape VC",
		Cols: []Column{
			{"mesh", "%-8s", "mesh"}, {"SB buffers", "%-12d", "sb_buffers"}, {"eVC buffers", "%-14d", "evc_buffers"},
			{"closed-form", "%-12v", "closed_form_agrees"}, {"coverage", "%v", "coverage_verified"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{fmt.Sprintf("%dx%d", r.Width, r.Height),
			r.SBBuffers, r.EscapeBuffers, r.ClosedFormAgrees, r.CoverageVerified})
	}
	return t
}

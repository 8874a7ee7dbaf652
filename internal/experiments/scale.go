package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// ScaleRow is one mesh size of the scale study: placement cost and
// saturation throughput of the three schemes at a fixed relative fault
// level.
type ScaleRow struct {
	Width, Height int
	// Bubbles is the SB placement size; BubbleFraction its share of
	// routers.
	Bubbles        int
	BubbleFraction float64
	// Faults is the absolute link-fault count used (≈10% of links).
	Faults int
	// Norm is saturation throughput normalized to the spanning tree;
	// Abs the tree's absolute accepted rate.
	Norm    [3]float64
	Abs     float64
	Sampled int
}

// Scale is an extension beyond the paper's evaluation: it repeats the
// Fig. 9 saturation measurement across mesh sizes (the paper simulates
// 8×8 only and gives 16×16 placement counts in Table I), showing that the
// placement cost stays sublinear in routers while the throughput
// advantage persists. Nil sizes selects 4×4, 8×8, and 12×12.
func Scale(p Params, sizes [][2]int) []ScaleRow {
	p = p.withDefaults()
	if sizes == nil {
		sizes = [][2]int{{4, 4}, {8, 8}, {12, 12}}
	}
	var rows []ScaleRow
	for _, sz := range sizes {
		pp := p
		pp.Width, pp.Height = sz[0], sz[1]
		faults := topology.MaxFaults(sz[0], sz[1], topology.LinkFaults) / 10
		point := fig9Point(pp, topology.LinkFaults, faults)
		rows = append(rows, ScaleRow{
			Width: sz[0], Height: sz[1],
			Bubbles:        core.PlacementCount(sz[0], sz[1]),
			BubbleFraction: float64(core.PlacementCount(sz[0], sz[1])) / float64(sz[0]*sz[1]),
			Faults:         faults,
			Norm:           point.Norm,
			Abs:            point.Abs,
			Sampled:        point.Sampled,
		})
	}
	return rows
}

func scaleTable(rows []ScaleRow) Table {
	t := Table{
		Title: "Scale study: placement cost and saturation advantage across mesh sizes",
		Cols: []Column{
			{"mesh", "%-8s", "mesh"}, {"bubbles", "%-9d", "bubbles"}, {"frac", "%-9.3f", "bubble_fraction"},
			{"faults", "%-7d", "faults"}, {"eVC", "%-10.3f", "evc_norm"}, {"SB", "%-10.3f", "sb_norm"},
			{"tree(fl/n/cy)", "%-14.4f", "tree_flits_node_cycle"}, {"n", "%d", "sampled"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{fmt.Sprintf("%dx%d", r.Width, r.Height), r.Bubbles, r.BubbleFraction,
			r.Faults, r.Norm[EscapeVC], r.Norm[StaticBubble], r.Abs, r.Sampled})
	}
	return t
}

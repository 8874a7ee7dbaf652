package experiments

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"repro/internal/topology"
)

// render concatenates one view of the tables.
func render(t *testing.T, write func(Table, io.Writer) error, tables []Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := write(tbl, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func renderText(t *testing.T, tables ...Table) string {
	t.Helper()
	return render(t, Table.WriteText, tables)
}

func renderCSV(t *testing.T, tables ...Table) string {
	t.Helper()
	return render(t, Table.WriteCSV, tables)
}

// parseCSV round-trips the CSV view through encoding/csv to prove it is
// well-formed, returning records including the header.
func parseCSV(t *testing.T, tables ...Table) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(renderCSV(t, tables...))).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return recs
}

func TestTableViews(t *testing.T) {
	tbl := Table{
		Title: "T: both views",
		Cols: []Column{
			{"name", "%-8s", "name"},
			{"pct", "%-6.1f", ""}, // text only
			{"", "", "frac"},      // CSV only
			{"big", "%5d", "big"},
			{"ok", "%v", "ok"},
		},
		Rows: [][]any{
			{"a,b", 12.5, 0.123456789, int64(7), true},
			{topology.LinkFaults, 100.0, 4.0, 42, false},
		},
		Notes: []string{"note: text view only"},
	}
	wantText := "T: both views\n" +
		"name     pct      big ok\n" +
		"a,b      12.5       7 true\n" +
		"links    100.0     42 false\n" +
		"note: text view only\n"
	if got := renderText(t, tbl); got != wantText {
		t.Errorf("text view:\n%q\nwant:\n%q", got, wantText)
	}
	wantCSV := "name,frac,big,ok\n" +
		"\"a,b\",0.123457,7,true\n" +
		"links,4,42,false\n"
	if got := renderCSV(t, tbl); got != wantCSV {
		t.Errorf("CSV view:\n%q\nwant:\n%q", got, wantCSV)
	}

	// A table with no columns in a view contributes nothing to it — not
	// even its title.
	textOnly := Table{Title: "grid", Cols: []Column{{Head: "x", Verb: "%d"}}, Rows: [][]any{{1}}}
	csvOnly := Table{Title: "long", Cols: []Column{{CSV: "x"}}, Rows: [][]any{{1}}, Notes: []string{"n"}}
	if got := renderText(t, textOnly, csvOnly); got != "grid\nx\n1\n" {
		t.Errorf("text view of a text-only + CSV-only pair = %q", got)
	}
	if got := renderCSV(t, textOnly, csvOnly); got != "x\n1\n" {
		t.Errorf("CSV view of a text-only + CSV-only pair = %q", got)
	}
}

// TestMeshColumnAligned: the mesh cell is padded as one string, so a
// two-digit mesh lines up with the header and the one-digit rows (the
// old %dx%-6d over-padded it by one).
func TestMeshColumnAligned(t *testing.T) {
	for _, tbl := range []Table{
		table1Table([]Table1Row{{Width: 8, Height: 8, SBBuffers: 21}, {Width: 16, Height: 16, SBBuffers: 89}}),
		scaleTable([]ScaleRow{{Width: 4, Height: 4, Bubbles: 5}, {Width: 12, Height: 12, Bubbles: 49}}),
	} {
		lines := strings.Split(renderText(t, tbl), "\n")
		for _, ln := range lines[1:4] { // header and both rows
			if len(ln) < 10 || ln[8] != ' ' || ln[9] == ' ' {
				t.Errorf("second column does not start at byte 9 in %q (table %q)", ln, tbl.Title)
			}
		}
	}
}

func TestFig2CSV(t *testing.T) {
	p := Quick()
	p.Topologies = 3
	rows := Fig2(p, map[topology.FaultKind][]int{topology.LinkFaults: {1, 5}})
	recs := parseCSV(t, fig2Table(rows))
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0][0] != "kind" || recs[1][0] != "links" {
		t.Fatalf("unexpected content: %v", recs[:2])
	}
}

func TestTable1CSV(t *testing.T) {
	recs := parseCSV(t, table1Table(Table1(Quick(), nil)))
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][1] != "21" || recs[2][1] != "89" {
		t.Fatalf("bubble counts wrong in CSV: %v", recs)
	}
}

func TestFig3CSVLongForm(t *testing.T) {
	rows := []Fig3Row{{
		FaultyLinks:          5,
		Rates:                []float64{0.1, 0.2},
		CumulativeDeadlocked: []float64{0.25, 0.75},
		Sampled:              4,
	}}
	recs := parseCSV(t, fig3Tables(rows)...)
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[2][2] != "0.75" {
		t.Fatalf("cumulative cell = %q", recs[2][2])
	}
}

// TestRemainingCSVEmittersWellFormed checks the CSV width of the figures
// the tests above do not, from hand-made rows — so it also runs under
// -short, where TestFiguresGolden (which pins the bytes) is skipped.
func TestRemainingCSVEmittersWellFormed(t *testing.T) {
	for name, c := range map[string]struct {
		tbl      Table
		wantCols int
	}{
		"fig8": {fig8Table([]Fig8Row{{Pattern: "uniform_random", Kind: topology.LinkFaults,
			Faults: 3, AvgNorm: [3]float64{1, 0.9, 0.9}, MaxNorm: [3]float64{1, 0.8, 0.8},
			AvgAbs: 20, Sampled: 5}}), 9},
		"fig9": {fig9Table([]Fig9Row{{Kind: topology.RouterFaults, Faults: 2,
			Norm: [3]float64{1, 2, 3}, Abs: 0.05, Sampled: 5}}), 6},
		"fig10": {fig10Table([]Fig10Row{{FaultyRouters: 7, Scheme: StaticBubble,
			LinkDynamic: 0.1, RouterDynamic: 0.2, LinkLeakage: 0.3, RouterLeakage: 0.4,
			Total: 1.0, Sampled: 5}}), 8},
		"fig11": {fig11Table([]Fig11Row{{TDD: 34, ProbesSent: 100, Recoveries: 3,
			FlitUtil: 0.15, ProbeUtil: 0.02, AvgLatency: 900, Sampled: 4}}), 10},
		"fig12": {fig12Table([]Fig12Row{{App: "BPlus", Kind: topology.LinkFaults,
			Faults: 10, Norm: [3]float64{1, 1.8, 2.6}, Sampled: 5}}), 6},
		"fig13": {fig13Table([]Fig13Row{{App: "canneal",
			RuntimeNorm: [3]float64{1, 0.9, 0.9}, EDPNorm: [3]float64{1, 0.8, 0.75},
			Sampled: 8}}), 6},
		"ablation": {ablationTable([]AblationRow{{Variant: "paper_placement",
			Buffers: 21, RecoveryCycles: 200, Recoveries: 2, CheckProbes: 6, Runs: 5}}), 6},
	} {
		recs := parseCSV(t, c.tbl)
		if len(recs) != 2 || len(recs[0]) != c.wantCols {
			t.Errorf("%s: %d records of %d columns, want 2 of %d", name, len(recs), len(recs[0]), c.wantCols)
		}
	}
}

func TestCSVNumericFormatting(t *testing.T) {
	recs := parseCSV(t, Table{
		Cols: []Column{{CSV: "frac"}, {CSV: "whole"}, {CSV: "count"}},
		Rows: [][]any{{0.123456789, 4.0, int64(42)}},
	})
	if got := strings.Join(recs[1], " "); got != "0.123457 4 42" {
		t.Fatalf("CSV cells = %q, want floats as %%.6g and integers as %%d", got)
	}
}

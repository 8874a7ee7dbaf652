package experiments

import (
	"strings"
	"testing"
)

// churnTestCfg is small enough for the unit-test tier while still
// producing overlapping events (mean inter-failure 600 cycles against a
// mean 900-cycle repair ⇒ the steady state usually has >1 element down).
func churnTestCfg() ChurnConfig {
	return ChurnConfig{
		Cycles:     12_000,
		MeanFail:   600,
		MeanRepair: 900,
		Seeds:      1,
	}
}

func churnTestParams() Params {
	p := Quick()
	p.Topologies = 1
	return p
}

// TestChurnShape: all three contenders run the churn workload to
// completion with conservation intact, observe events, deliver traffic,
// and order as the downtime model dictates: Static Bubble (no stall)
// must not be less available than the globally-stalling tree re-election.
func TestChurnShape(t *testing.T) {
	rows := Churn(churnTestParams(), churnTestCfg())
	if len(rows) != 3 {
		t.Fatalf("want 3 contenders, got %d", len(rows))
	}
	byLabel := map[string]ChurnRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.Sampled == 0 {
			t.Fatalf("%s: no run passed the conservation check", r.Label)
		}
		if r.Events == 0 {
			t.Fatalf("%s: churn produced no applied events", r.Label)
		}
		if r.Delivered == 0 {
			t.Fatalf("%s: delivered nothing", r.Label)
		}
		if r.Availability <= 0 || r.Availability > 1 {
			t.Fatalf("%s: availability %v out of range", r.Label, r.Availability)
		}
		if r.RecP50 < 0 || r.RecP99 < r.RecP50 || r.RecP999 < r.RecP99 {
			t.Fatalf("%s: recovery percentiles not monotone: %v %v %v",
				r.Label, r.RecP50, r.RecP99, r.RecP999)
		}
		if r.PktP99 < r.PktP50 {
			t.Fatalf("%s: packet percentiles not monotone", r.Label)
		}
	}
	sb, tree, dbr := byLabel["static_bubble"], byLabel["sp_tree"], byLabel["dbr"]
	if sb.Stall != 0 || tree.Stall == 0 || dbr.Stall == 0 {
		t.Fatalf("stall model wrong: sb=%d tree=%d dbr=%d", sb.Stall, tree.Stall, dbr.Stall)
	}
	// Compile accounting: SB's manager compiles incrementally under churn
	// and every applied event produced a (possibly zero) compile sample.
	if sb.TabMisses == 0 || sb.TabIncremental == 0 {
		t.Fatalf("static_bubble table counters empty: %+v", sb)
	}
	if sb.CmpP99Ns < sb.CmpP50Ns {
		t.Fatalf("compile percentiles not monotone: p50=%v p99=%v", sb.CmpP50Ns, sb.CmpP99Ns)
	}
	// The baselines model their own rebuilds; manager counters stay zero.
	if tree.TabMisses != 0 || dbr.TabMisses != 0 {
		t.Fatalf("baseline rows should not carry manager table stats: tree=%+v dbr=%+v", tree, dbr)
	}
	if sb.Availability < tree.Availability {
		t.Fatalf("static_bubble availability %v below sp_tree %v despite zero stall",
			sb.Availability, tree.Availability)
	}
	// The tree's global 2000-cycle stall dominates its recovery tail; SB
	// events finish when damaged traffic lands, far sooner.
	if sb.RecP99 >= tree.RecP99 {
		t.Fatalf("static_bubble recP99 %v not below sp_tree %v", sb.RecP99, tree.RecP99)
	}
}

// TestChurnDeterminism: same parameters, same rows — the sweep cache
// depends on it.
func TestChurnDeterminism(t *testing.T) {
	p := churnTestParams()
	cfg := churnTestCfg()
	cfg.Cycles = 6000
	a := Churn(p, cfg)
	b := Churn(p, cfg)
	for i := range a {
		// The measured compile-time percentiles are wall clock — the one
		// field pair deliberately outside the determinism contract (the
		// recovery fold uses the deterministic entries model instead).
		a[i].CmpP50Ns, a[i].CmpP99Ns = 0, 0
		b[i].CmpP50Ns, b[i].CmpP99Ns = 0, 0
		if a[i] != b[i] {
			t.Fatalf("row %d differs across reruns:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestChurnCSV: the CSV emitter is well-formed and carries every row.
func TestChurnCSV(t *testing.T) {
	p := churnTestParams()
	cfg := churnTestCfg()
	cfg.Cycles = 6000
	rows := Churn(p, cfg)
	tbl := churnTable(cfg, rows)
	lines := strings.Split(strings.TrimSpace(renderCSV(t, tbl)), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("want %d lines, got %d", len(rows)+1, len(lines))
	}
	wantCols := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Fatalf("line %d has %d columns, want %d", i, got, wantCols)
		}
	}
	text := renderText(t, tbl)
	for _, label := range []string{"static_bubble", "sp_tree", "dbr"} {
		if !strings.Contains(text, label) {
			t.Fatalf("table output missing %s", label)
		}
	}
}

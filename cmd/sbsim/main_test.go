package main

import (
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/topology"
)

func TestCheckPattern(t *testing.T) {
	p := experiments.Params{Width: 4, Height: 4}
	inst := p.Build(topology.NewMesh(4, 4), experiments.StaticBubble, 1)
	for _, name := range patterns {
		if err := checkPattern(name); err != nil {
			t.Errorf("-pattern %s rejected: %v", name, err)
		}
		// The list must name what Instance.Pattern builds, not fall
		// through to its uniform_random default.
		if got := inst.Pattern(name).Name(); got != name {
			t.Errorf("-pattern %s builds %s", name, got)
		}
	}
	for _, name := range []string{"bogus", "", "Transpose", "uniform"} {
		if err := checkPattern(name); err == nil {
			t.Errorf("-pattern %q accepted", name)
		}
	}
}

func TestCheckRanges(t *testing.T) {
	links, routers := topology.LinkFaults, topology.RouterFaults
	cases := []struct {
		name          string
		width, height int
		kind          topology.FaultKind
		faults        int
		cycles        int
		rate          float64
		ok            bool
	}{
		{"defaults", 8, 8, links, 0, 20000, 0.05, true},
		{"all links", 8, 8, links, 112, 1, 1, true},
		{"one router left", 4, 4, routers, 15, 1, 0, true},
		{"no router left", 4, 4, routers, 16, 1, 0.05, false},
		{"1x1", 1, 1, links, 0, 1, 0.5, true},
		{"zero width", 0, 8, links, 0, 20000, 0.05, false},
		{"negative height", 8, -1, links, 0, 20000, 0.05, false},
		{"too many links", 8, 8, links, 500, 20000, 0.05, false},
		{"too many routers", 8, 8, routers, 65, 20000, 0.05, false},
		{"negative faults", 8, 8, links, -1, 20000, 0.05, false},
		{"zero cycles", 8, 8, links, 0, 0, 0.05, false},
		{"negative rate", 8, 8, links, 0, 20000, -0.1, false},
		{"rate above 1", 8, 8, links, 0, 20000, 1.5, false},
		{"NaN rate", 8, 8, links, 0, 20000, math.NaN(), false},
	}
	for _, c := range cases {
		err := checkRanges(c.width, c.height, c.kind, c.faults, c.cycles, c.rate)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkRanges = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCheckRecovery(t *testing.T) {
	sb, tree, evc := experiments.StaticBubble, experiments.SpanningTree, experiments.EscapeVC
	cases := []struct {
		name   string
		scheme experiments.Scheme
		tdd    int64
		spin   bool
		ok     bool
	}{
		{"defaults", sb, 34, false, true},
		{"tdd 1", sb, 1, false, true},
		{"spin under sb", sb, 34, true, true},
		{"tdd ignored by tree", tree, 34, false, true},
		{"zero tdd", sb, 0, false, false},
		{"negative tdd", sb, -5, false, false},
		{"negative tdd under evc", evc, -1, false, false},
		{"spin under tree", tree, 34, true, false},
		{"spin under evc", evc, 34, true, false},
	}
	for _, c := range cases {
		err := checkRecovery(c.scheme, c.tdd, c.spin)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkRecovery = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

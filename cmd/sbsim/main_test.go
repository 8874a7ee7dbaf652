package main

import (
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

// Command sbplace inspects the static-bubble placement algorithm
// (paper Section III): it renders the placement for an n×m mesh, reports
// the bubble count from both the enumeration and the closed form, and
// verifies the coverage lemma on the full mesh and on randomly faulted
// derivatives.
//
// Usage:
//
//	sbplace [-width 8] [-height 8] [-verify-faults 200]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/topology"
)

func main() {
	width := flag.Int("width", 8, "mesh width")
	height := flag.Int("height", 8, "mesh height")
	verify := flag.Int("verify-faults", 100, "random faulted topologies to verify coverage on (0 to skip)")
	flag.Parse()

	if *width < 1 || *height < 1 {
		fmt.Fprintln(os.Stderr, "sbplace: mesh dimensions must be positive")
		os.Exit(2)
	}
	if *verify < 0 {
		fmt.Fprintln(os.Stderr, "sbplace: -verify-faults must not be negative (0 skips verification)")
		os.Exit(2)
	}

	fmt.Printf("Static bubble placement for a %dx%d mesh\n\n", *width, *height)
	for y := *height - 1; y >= 0; y-- {
		fmt.Printf("%3d  ", y)
		for x := 0; x < *width; x++ {
			if core.HasStaticBubble(geom.Coord{X: x, Y: y}) {
				fmt.Print(" ◉")
			} else {
				fmt.Print(" ·")
			}
		}
		fmt.Println()
	}
	fmt.Print("\n     ")
	for x := 0; x < *width; x++ {
		fmt.Printf("%2d", x%10)
	}
	fmt.Println()

	enum := core.PlacementCount(*width, *height)
	closed := core.PlacementCountClosedForm(*width, *height)
	total := *width * *height
	fmt.Printf("\nbubbles (enumerated):  %d of %d routers (%.1f%%)\n", enum, total, 100*float64(enum)/float64(total))
	fmt.Printf("bubbles (closed form): %d  [agree: %v]\n", closed, enum == closed)
	fmt.Printf("escape-VC overhead:    %d buffers (n*m*5, Table I)\n", total*geom.NumPorts)

	mesh := topology.NewMesh(*width, *height)
	fmt.Printf("coverage on full mesh: %v\n", core.VerifyCoverage(mesh))

	if *verify > 0 {
		rng := rand.New(rand.NewSource(1))
		bad := 0
		for i := 0; i < *verify; i++ {
			t := topology.NewMesh(*width, *height)
			maxL := topology.MaxFaults(*width, *height, topology.LinkFaults)
			topology.RandomLinkFaults(t, rng, rng.Intn(maxL/2+1))
			topology.RandomRouterFaults(t, rng, rng.Intn(total/4+1))
			if !core.VerifyCoverage(t) {
				bad++
				fmt.Printf("COVERAGE VIOLATION: %v cycle %v\n", t, core.CoverageCounterexample(t))
			}
		}
		fmt.Printf("coverage on %d random faulted topologies: %d violations\n", *verify, bad)
		if bad > 0 {
			os.Exit(1)
		}
	}
}

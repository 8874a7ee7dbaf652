package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// print writes the workload's report for people; the machine-readable
// forms are the result line and the results file.
func (rep *report) print(w io.Writer, endToEndPass, tracedPass bool) {
	fmt.Fprintf(w, "== %s: %d %ss per repetition, %d attempted, %d failed, correct=%v\n",
		rep.Workload, rep.Ops, rep.Unit, rep.Attempted, rep.Failed, rep.Correct)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	if endToEndPass {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "   %-36s %14.6g %-15s reps %s\n", m.name, rep.Median[m.name], m.unit, fmtReps(rep.Reps[m.name]))
		}
	}
	if !tracedPass || rep.Layers == nil {
		return
	}
	n := rep.Ops
	fmt.Fprintf(w, "   -- per layer (traced pass; %.2f%% of its wall outside every layer span; unit_ms_phigh is p%g of %d %ss)\n",
		rep.Unattributed, highPercentile(n), n, rep.Unit)
	for _, m := range perLayer {
		if v, ok := rep.Layers[m.name]; ok && v != 0 {
			fmt.Fprintf(w, "   %-40s %14.6g %s\n", m.name, v, m.unit)
		}
	}
}

func fmtReps(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// setupFloorS is the absolute slack -compare gives setup_s: most
// set-ups take a few milliseconds of page faults and vary by tens of
// percent between processes, so a move of less than this many seconds
// is never a finding. (BENCHMARK.json can express only the share.)
const setupFloorS = 0.025

// verdict judges one (workload, end-to-end metric) pair of cand against
// base. slack is the larger of bound × the base median and floor, in the
// metric's unit: worse when the median moved the wrong way by more than
// slack, unresolved when either side's repetitions spread wider than
// slack (unless every repetition of cand beats every one of base), ok
// otherwise. It returns the ratio of the medians with it.
func verdict(better string, bound, floor float64, base, cand []float64) (string, float64) {
	mb, mc := median(base), median(cand)
	slack := math.Max(bound*mb, floor)
	worse := mc - mb
	if better == "higher" {
		worse = -worse
	}
	sb, sc := sortedCopy(base), sortedCopy(cand)
	if sb[len(sb)-1]-sb[0] > slack || sc[len(sc)-1]-sc[0] > slack {
		clear := sc[len(sc)-1] < sb[0]
		if better == "higher" {
			clear = sc[0] > sb[len(sb)-1]
		}
		if !clear {
			return "unresolved", ratio(mc, mb)
		}
	}
	if worse > slack {
		return "worse", ratio(mc, mb)
	}
	return "ok", ratio(mc, mb)
}

// compareFiles prints one row per (workload, end-to-end metric) of
// results file b against base a and returns the exit code: 1 when any
// row is worse or any Stats digest differs, 0 otherwise.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base %s: %+v\nnew  %s: %+v\n", pathA, a.Host, pathB, b.Host)
	if a.Host.CPU != b.Host.CPU || a.Host.NumCPU != b.Host.NumCPU {
		fmt.Println("warning: different hosts; host-time rows compare machines, not commits")
	}
	code := 0
	fmt.Printf("%-24s %-36s %14s %14s %9s %6s  %s\n", "workload", "metric", "base median", "new median", "new/base", "bound", "verdict")
	for _, ra := range a.Workloads {
		var rb *report
		for _, cand := range b.Workloads {
			if cand.Workload == ra.Workload {
				rb = cand
			}
		}
		if rb == nil {
			fmt.Printf("%-24s missing from %s\n", ra.Workload, pathB)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			floor := 0.0
			if m.name == "setup_s" {
				floor = setupFloorS
			}
			v, r := verdict(m.better, m.bound, floor, ra.Reps[m.name], rb.Reps[m.name])
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-24s %-36s %14.6g %14.6g %9.4f %5.0f%%  %s\n",
				ra.Workload, m.name, ra.Median[m.name], rb.Median[m.name], r, 100*m.bound, v)
		}
		digest := "equal"
		if a.Host.Seed == b.Host.Seed && a.Seconds == b.Seconds && ra.Digest != rb.Digest {
			digest = "DIFFERENT (simulated statistics changed)"
			code = 1
		}
		fmt.Printf("%-24s failed share base %d/%d new %d/%d; Stats digest %s\n",
			ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, digest)
	}
	return code
}

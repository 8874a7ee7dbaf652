package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smallOps is each workload at about 1/100 of a repetition.
func smallOps(w *workload) int { return w.opsFor(defaultSeconds/100.0, 1) }

func runSmall(t *testing.T, w *workload, seed int64, traced bool) *run {
	t.Helper()
	r := newRun(w, seed, smallOps(w), traced)
	w.run(r)
	for _, f := range r.failures {
		t.Errorf("%s seed %d: %s", w.name, seed, f)
	}
	return r
}

// TestWorkloads checks, per workload at small scale: a seed determines
// the simulation, another seed changes it, and the traced pass — hook
// wrappers, algorithm wrapper, override wrapper, delivery observer —
// leaves Stats and the stepper's path counters exactly as they were.
// It also checks that every per-layer name is produced by some workload
// and that no workload produces a name outside the table.
func TestWorkloads(t *testing.T) {
	outDir = t.TempDir()
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	seen := map[string]bool{
		// Computed by the parent from the repetitions' walls.
		"bench.trace_overhead_pct": true,
		"bench.wall_spread_pct":    true,
	}
	for _, w := range workloads {
		plain := runSmall(t, w, 1, false)
		traced := runSmall(t, w, 1, true)
		other := runSmall(t, w, 2, false)
		if plain.digestHex() != traced.digestHex() {
			t.Errorf("%s: tracing changed the simulated Stats", w.name)
		}
		if plain.counters != traced.counters {
			t.Errorf("%s: tracing changed the stepper counters: %+v vs %+v", w.name, plain.counters, traced.counters)
		}
		if plain.digestHex() == other.digestHex() {
			t.Errorf("%s: seeds 1 and 2 simulated the same thing", w.name)
		}
		if plain.attempted != smallOps(w) {
			t.Errorf("%s: attempted %d ops, want %d", w.name, plain.attempted, smallOps(w))
		}
		res := traced.result()
		for name := range res.Layers {
			if !known[name] {
				t.Errorf("%s emits %q, which is not in the per-layer table", w.name, name)
			}
			seen[name] = true
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; m.name != "peak_rss_mb" && (!ok || v <= 0) {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, m.name, v)
			}
		}
		if res.Unattributed < 0 || res.Unattributed > 100 {
			t.Errorf("%s: unattributed share %v%%", w.name, res.Unattributed)
		}
	}
	for _, m := range perLayer {
		if !seen[m.name] {
			t.Errorf("no workload emits %s", m.name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(16)
	// A unit of 100 ns holding a 60 ns step that holds a 25 ns hook, and
	// a 30 ns tick; built by hand so the arithmetic is exact.
	tr.spans = append(tr.spans,
		span{ID: 1, Parent: 0, Name: "bench.unit", Start: 10, End: 110, Calls: 1},
		span{ID: 2, Parent: 1, Name: "network.step", Start: 10, End: 70, Calls: 3},
		span{ID: 3, Parent: 2, Name: "core.hook", Start: 10, End: 35, Calls: 6},
		span{ID: 4, Parent: 1, Name: "traffic.tick", Start: 70, End: 100, Calls: 3},
	)
	tr.spans[0].End = 120
	want := map[string]int64{"bench.run": 20, "bench.unit": 10, "network.step": 35, "core.hook": 25, "traffic.tick": 30}
	got := selfTimes(tr.spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 120 {
		t.Errorf("self times sum to %d, want the run span's 120", sum)
	}
}

// TestTracerNesting drives the recorder the way the workloads do and
// checks the parents it assigns.
func TestTracerNesting(t *testing.T) {
	tr := newTracer(16)
	sw := tr.open(lSweepRun, "")
	u := tr.open(lUnit, "cell:0")
	for i := 0; i < 3; i++ {
		t0 := tr.start()
		t1 := tr.start()
		tr.stop(lRoute, t1)
		tr.stop(lTrafficTick, t0)
		t0 = tr.start()
		t1 = tr.start()
		tr.stop(lCoreHook, t1)
		tr.stop(lStep, t0)
	}
	tr.close(u)
	tr.close(sw)
	t0 := tr.start()
	tr.stop(lEncode, t0)
	tr.finish()
	parent := map[string]string{}
	calls := map[string]int64{}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			parent[s.Name] = tr.spans[s.Parent].Name
		}
		calls[s.Name] = s.Calls
	}
	want := map[string]string{
		"sweep.run": "bench.run", "bench.unit": "sweep.run",
		"traffic.tick": "bench.unit", "routing.route": "traffic.tick",
		"network.step": "bench.unit", "core.hook": "network.step",
		"experiments.encode": "bench.run",
	}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v, want %v", parent, want)
	}
	if calls["network.step"] != 3 || calls["core.hook"] != 3 {
		t.Errorf("calls = %v", calls)
	}
	var nilTracer *tracer
	nilTracer.stop(lStep, nilTracer.start()) // tracing off: must be a no-op
	nilTracer.close(nilTracer.open(lUnit, "x"))
}

func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {129, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(s, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		better     string
		floor      float64
		base, cand []float64
		want       string
	}{
		{"lower", 0, []float64{1, 1.01, 1.02}, []float64{1.05, 1.06, 1.04}, "ok"},
		{"lower", 0, []float64{1, 1.01, 1.02}, []float64{1.2, 1.21, 1.19}, "worse"},
		{"higher", 0, []float64{1, 1.01, 1.02}, []float64{0.8, 0.81, 0.82}, "worse"},
		{"lower", 0, []float64{1, 1.01, 1.3}, []float64{1, 1.01, 1.02}, "unresolved"},
		{"lower", 0, []float64{1, 1.01, 1.3}, []float64{0.5, 0.51, 0.7}, "ok"},                   // every run beats the base
		{"lower", 0.025, []float64{0.003, 0.0035, 0.005}, []float64{0.004, 0.0045, 0.006}, "ok"}, // under the floor
	} {
		if got, _ := verdict(c.better, 0.10, c.floor, c.base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.better, c.base, c.cand, got, c.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the program to the same
// names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v vs program %q", i, w, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		e := endToEnd[i]
		if m != (metric{e.name, e.unit, e.better, e.bound}) || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v vs program %+v", i, m, e)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		e := perLayer[i]
		if m != (metric{e.name, e.unit, e.better, 0}) || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %+v vs program %+v", i, m, e)
		}
	}

	// The result line carries exactly the table's names.
	rep := &report{Layers: map[string]float64{}, Median: map[string]float64{}}
	for _, layers := range []bool{false, true} {
		var line struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(rep.resultLine(layers)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if layers {
			want = len(perLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("result line (layers=%v) has %d metrics, want %d", layers, len(line.Metrics), want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// layer identifies one timed call site into a module of the program
// under test. The name's prefix up to the first '.' is the module.
type layer int

const (
	lRun layer = iota
	lSetup
	lUnit
	lTopoSample
	lTopoClone
	lRoutingTable
	lNetworkNew
	lCoreAttach
	lAdaptiveAttach
	lReconfigNew
	lExpBuild
	lTrafficNew
	lTrafficTick
	lRoute
	lAdaptiveNewPacket
	lStep
	lCoreHook
	lEscapeHook
	lAdaptiveOverride
	lReconfigSubmit
	lReconfigTick
	lSweepRun
	lStatsMerge
	lEncode
	lCheck
	numLayers
)

var layerNames = [numLayers]string{
	lRun:               "bench.run",
	lSetup:             "bench.setup",
	lUnit:              "bench.unit",
	lTopoSample:        "topology.sample",
	lTopoClone:         "topology.clone",
	lRoutingTable:      "routing.table",
	lNetworkNew:        "network.new",
	lCoreAttach:        "core.attach",
	lAdaptiveAttach:    "adaptive.attach",
	lReconfigNew:       "reconfig.new",
	lExpBuild:          "experiments.build",
	lTrafficNew:        "traffic.new",
	lTrafficTick:       "traffic.tick",
	lRoute:             "routing.route",
	lAdaptiveNewPacket: "adaptive.new_packet",
	lStep:              "network.step",
	lCoreHook:          "core.hook",
	lEscapeHook:        "escape.hook",
	lAdaptiveOverride:  "adaptive.override",
	lReconfigSubmit:    "reconfig.submit",
	lReconfigTick:      "reconfig.tick",
	lSweepRun:          "sweep.run",
	lStatsMerge:        "stats.merge",
	lEncode:            "experiments.encode",
	lCheck:             "bench.check",
}

// layerParent is the static call tree: which span a layer call nests
// in. Layers whose parent is lUnit attach to the open scope (a unit or
// the set-up span).
var layerParent = [numLayers]layer{
	lRun:               -1,
	lSetup:             lRun,
	lUnit:              lRun,
	lTopoSample:        lUnit,
	lTopoClone:         lUnit,
	lRoutingTable:      lUnit,
	lNetworkNew:        lUnit,
	lCoreAttach:        lUnit,
	lAdaptiveAttach:    lUnit,
	lReconfigNew:       lUnit,
	lExpBuild:          lUnit,
	lTrafficNew:        lUnit,
	lTrafficTick:       lUnit,
	lRoute:             lTrafficTick,
	lAdaptiveNewPacket: lTrafficTick,
	lStep:              lUnit,
	lCoreHook:          lStep,
	lEscapeHook:        lStep,
	lAdaptiveOverride:  lStep,
	lReconfigSubmit:    lUnit,
	lReconfigTick:      lUnit,
	lSweepRun:          lRun,
	lStatsMerge:        lRun,
	lEncode:            lRun,
	lCheck:             lUnit,
}

// span is one record of the trace file. A span that stands for many
// calls (calls > 1) starts at its first call and lasts the sum of the
// calls' durations, so end_ns - start_ns is always time spent inside.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

type acc struct{ first, dur, calls int64 }

// tracer accumulates per-call timers into one span per (scope, layer).
// A nil *tracer is the tracing-off state: start and stop cost one nil
// check, so the timed code is the same in both passes.
type tracer struct {
	epoch time.Time
	spans []span
	acc   [numLayers]acc
	// scopeName labels the open unit or set-up span's layer spans;
	// sweepRun is the open sweep.run span, 0 when none.
	sweepRun  int
	scopeName string
	// total sums every flushed layer accumulator over the run.
	total [numLayers]acc
}

// newTracer preallocates the span log so that recording never grows it
// inside a timed region.
func newTracer(expectSpans int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, expectSpans+16)}
	t.spans = append(t.spans, span{ID: 0, Parent: -1, Name: layerNames[lRun], Calls: 1})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start returns a timestamp for stop; 0 when tracing is off.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// stop charges the time since t0 to layer l in the open scope.
func (t *tracer) stop(l layer, t0 int64) {
	if t == nil {
		return
	}
	a := &t.acc[l]
	if a.calls == 0 {
		a.first = t0
	}
	a.dur += t.now() - t0
	a.calls++
}

// open starts a scope span (a unit, set-up, or sweep.run) and returns
// its id. Layer calls made until close nest under it.
func (t *tracer) open(l layer, name string) int {
	if t == nil {
		return 0
	}
	t.flush(0) // calls made between scopes belong to the run span
	parent := 0
	if l == lUnit && t.sweepRun != 0 {
		parent = t.sweepRun
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: layerNames[l], Unit: name, Start: t.now(), Calls: 1})
	if l == lSweepRun {
		t.sweepRun = id
	} else {
		t.scopeName = name
	}
	return id
}

// close ends scope id and flushes the layer accumulators under it.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.spans[id].End = end
	if id == t.sweepRun {
		t.sweepRun = 0
		return
	}
	t.flush(id)
	t.scopeName = ""
}

// flush turns the non-empty accumulators into spans under scope. The
// static layer order puts every parent before its children.
func (t *tracer) flush(scope int) {
	var ids [numLayers]int
	for l := layer(0); l < numLayers; l++ {
		a := t.acc[l]
		if a.calls == 0 {
			continue
		}
		parent := scope
		if p := layerParent[l]; p > lUnit && ids[p] != 0 {
			parent = ids[p]
		}
		id := len(t.spans)
		ids[l] = id
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: layerNames[l], Unit: t.scopeName,
			Start: a.first, End: a.first + a.dur, Calls: a.calls})
		t.total[l].dur += a.dur
		t.total[l].calls += a.calls
		t.acc[l] = acc{}
	}
}

// finish closes the run span; calls made outside any scope (merge,
// encode) flush under it.
func (t *tracer) finish() {
	t.flush(0)
	t.spans[0].End = t.now()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highLadder are the tail percentiles a report may quote.
var highLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highPercentile picks the highest ladder percentile that still has at
// least ten of n samples beyond it; with fewer than twenty samples not
// even the median qualifies and it reports the median anyway (the
// sample count is printed beside it).
func highPercentile(n int) float64 {
	best := highLadder[0]
	for _, p := range highLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			best = p
		}
	}
	return best
}

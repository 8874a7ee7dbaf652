package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/memprof"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/validate"
)

// blockCycles is the unit of the single-instance workloads: one op is
// a block of this many simulated cycles.
const blockCycles = 1000

// run is the state of one repetition of one workload inside a child
// process: the ledgers the end-to-end metrics are computed from, the
// correctness findings, and (in the traced pass) the tracer.
type run struct {
	w    *workload
	seed int64
	ops  int
	tr   *tracer

	// setupNs collects one sample per set-up of a single-instance
	// workload; cellSetupNs sums the in-cell set-ups of the sweep.
	setupNs     []int64
	cellSetupNs int64
	// wallNs is everything after set-up; excludedNs is the time spent in
	// correctness checks, which run between timed regions.
	wallNs, excludedNs int64

	routerCycles, simCycles int64
	offered                 int64
	sumLatency              int64
	delivered               int64
	deliveredFlits          int64
	hopMoves                int64
	maxLatency              int64
	counters                network.StepperCounters
	protocol                network.Stats // recovery-protocol counters, summed

	attempted, failed int
	failures          []string
	digest            hash.Hash

	unitNs      []int64 // duration of every unit, in order
	drainCycles []float64
	lat         *stats.Quantile // traced pass only
	// The allocation window opens after the warm-up eighth of the ops;
	// allocCycles is its length once closed.
	allocOpen   bool
	allocBase   memprof.Snapshot
	allocCycles int64
	alloc       memprof.Delta
	// sideStats is the Stats at the cycle the sharded side pass stops.
	sideStats network.Stats
	tables    *reconfig.TableStats // churn only, net of the set-up compile
	extra     map[string]float64   // per-layer values not derived from spans
}

func newRun(w *workload, seed int64, ops int, traced bool) *run {
	r := &run{w: w, seed: seed, ops: ops, digest: sha256.New(), extra: map[string]float64{},
		unitNs: make([]int64, 0, ops), drainCycles: make([]float64, 0, ops)}
	if traced {
		r.tr = newTracer(ops*int(numLayers) + 64)
		r.lat = &stats.Quantile{}
	}
	return r
}

// stream derives the i-th decorrelated seed of this run.
func (r *run) stream(i int) int64 {
	base := sweep.NewKey("bench").Str("workload", r.w.name).Int64("seed", r.seed).Seed()
	return sweep.SubSeed(base, i)
}

func (r *run) rng(i int) *rand.Rand { return rand.New(rand.NewSource(r.stream(i))) }

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setup runs build setupReps times, each from a cold table cache, and
// records one set-up sample per pass; the last pass's instances are the
// ones the workload goes on to run.
func (r *run) setup(build func()) {
	reps := r.w.setupReps
	if r.tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		routing.ResetTableCache()
		id := r.tr.open(lSetup, "setup")
		t0 := time.Now()
		build()
		r.setupNs = append(r.setupNs, time.Since(t0).Nanoseconds())
		r.tr.close(id)
		// Collect the previous pass's instances now, so that the heap
		// never holds more than two passes and the timed region starts
		// from a settled heap.
		runtime.GC()
	}
}

// inst is one simulated network with its per-cycle driver.
type inst struct {
	s  *network.Sim
	sb *core.Controller
	// tick offers one cycle of traffic (and churn); it times its own
	// layer calls through the run's tracer.
	tick func()
	// tables reads the reconfiguration manager's table counters.
	tables func() reconfig.TableStats
}

// wrapHooks replaces the PreCycle/PostCycle hooks in [pre0,len) and
// [post0,len) — the ones a scheme's Attach appended — with timed
// wrappers. The slices keep their lengths, which the simulator's
// quiescence accounting depends on.
func (r *run) wrapHooks(s *network.Sim, l layer, pre0, post0 int) {
	if r.tr == nil {
		return
	}
	wrap := func(f func(*network.Sim)) func(*network.Sim) {
		return func(s *network.Sim) {
			t0 := r.tr.start()
			f(s)
			r.tr.stop(l, t0)
		}
	}
	for i := pre0; i < len(s.PreCycle); i++ {
		s.PreCycle[i] = wrap(s.PreCycle[i])
	}
	for i := post0; i < len(s.PostCycle); i++ {
		s.PostCycle[i] = wrap(s.PostCycle[i])
	}
}

// attachSB installs Static Bubble on s under a core.attach span and
// wraps its hooks.
func (r *run) attachSB(s *network.Sim, opt core.Options) *core.Controller {
	pre0, post0 := len(s.PreCycle), len(s.PostCycle)
	t0 := r.tr.start()
	sb := core.Attach(s, opt)
	r.tr.stop(lCoreAttach, t0)
	r.wrapHooks(s, lCoreHook, pre0, post0)
	return sb
}

// observe installs the traced pass's delivery observer.
func (r *run) observe(s *network.Sim) {
	if r.lat == nil {
		return
	}
	s.OnDeliver = func(p *network.Packet) { r.lat.Add(float64(p.Latency())) }
}

// tracedAlg times every route computation of the algorithm handed to a
// traffic source. It forwards RouteAppender so the injector's
// allocation-free path and its rng consumption stay as they were.
type tracedAlg struct {
	inner routing.Algorithm
	tr    *tracer
}

func (a tracedAlg) Name() string { return a.inner.Name() }

func (a tracedAlg) Route(src, dst geom.NodeID, rng *rand.Rand) (routing.Route, bool) {
	t0 := a.tr.start()
	rt, ok := a.inner.Route(src, dst, rng)
	a.tr.stop(lRoute, t0)
	return rt, ok
}

func (a tracedAlg) AppendRoute(buf routing.Route, src, dst geom.NodeID, rng *rand.Rand) (routing.Route, bool) {
	t0 := a.tr.start()
	rt, ok := routing.AppendRoute(a.inner, buf, src, dst, rng)
	a.tr.stop(lRoute, t0)
	return rt, ok
}

// alg returns a as handed to a traffic source: wrapped in the traced
// pass, untouched otherwise.
func (r *run) alg(a routing.Algorithm) routing.Algorithm {
	if r.tr == nil {
		return a
	}
	return tracedAlg{inner: a, tr: r.tr}
}

// advance steps in by n cycles: traffic, then the stepper.
func (r *run) advance(in *inst, n int) {
	s := in.s
	for c := 0; c < n; c++ {
		in.tick()
		t0 := r.tr.start()
		s.Step()
		r.tr.stop(lStep, t0)
	}
}

// unitName labels unit i's spans; the untraced pass, which must not
// allocate in its measured window, gets no label.
func (r *run) unitName(i int) string {
	if r.tr == nil {
		return ""
	}
	return fmt.Sprintf("%s:%d", r.w.unit, i)
}

// block runs one timed unit of n cycles on in and applies the wedge
// watchdog: the op fails when the network held packets for the whole
// block and nothing moved.
func (r *run) block(in *inst, i, n int) {
	s := in.s
	busyBefore := s.InFlight()+s.QueuedPackets() > 0
	progress := s.LastProgress
	id := r.tr.open(lUnit, r.unitName(i))
	t0 := time.Now()
	r.advance(in, n)
	d := time.Since(t0).Nanoseconds()
	r.tr.close(id)
	r.wallNs += d
	r.unitNs = append(r.unitNs, d)
	r.routerCycles += int64(n) * int64(s.Topo.AliveRouterCount())
	r.simCycles += int64(n)
	r.attempted++
	if busyBefore && s.InFlight()+s.QueuedPackets() > 0 && s.LastProgress == progress {
		r.fail("%s %d: wedged: %d packets held, no movement since cycle %d", r.w.unit, i, s.InFlight()+s.QueuedPackets(), progress)
	}
}

// unitStart runs before unit i: the allocation window opens once the
// warm-up eighth of the ops is done.
func (r *run) unitStart(i int) {
	if i == (r.ops+7)/8 {
		r.allocWindow()
	}
}

// allocWindow opens the post-warm-up allocation window (outside any
// timed region: ReadMemStats stops the world).
func (r *run) allocWindow() {
	r.allocOpen, r.allocBase, r.allocCycles = true, memprof.Take(), r.simCycles
}

func (r *run) closeAllocWindow() {
	if !r.allocOpen {
		r.allocCycles = 0
		return
	}
	r.alloc = memprof.Take().Since(r.allocBase)
	r.allocCycles = r.simCycles - r.allocCycles
}

// finish closes the books on one instance: the correctness gate's
// end-of-run checks, the Stats digest and the simulated-time sums.
func (r *run) finish(in *inst) {
	t0 := time.Now()
	s := in.s
	st := s.Stats
	if got := st.Delivered + s.InFlight() + s.QueuedPackets() + st.Lost; got != st.Offered {
		r.fail("conservation: offered %d != delivered %d + in flight %d + queued %d + lost %d",
			st.Offered, st.Delivered, s.InFlight(), s.QueuedPackets(), st.Lost)
	}
	r.validate(in, "end of run")
	fmt.Fprintf(r.digest, "%+v\n", st)
	r.offered += st.Offered
	r.sumLatency += st.SumLatency
	r.delivered += st.Delivered
	r.deliveredFlits += st.DeliveredFlits
	r.hopMoves += st.HopMoves
	if st.MaxLatency > r.maxLatency {
		r.maxLatency = st.MaxLatency
	}
	r.protocol.ProbesSent += st.ProbesSent
	r.protocol.ProbesReturned += st.ProbesReturned
	r.protocol.DeadlockRecoveries += st.DeadlockRecoveries
	r.protocol.EscapeTransfers += st.EscapeTransfers
	c := s.StepperCounters()
	r.counters.QuietCycles += c.QuietCycles
	r.counters.DenseCycles += c.DenseCycles
	r.counters.DenseEnters += c.DenseEnters
	r.counters.DenseExits += c.DenseExits
	r.excludedNs += time.Since(t0).Nanoseconds()
}

func (r *run) validate(in *inst, when string) {
	for _, v := range validate.Check(in.s, in.sb) {
		r.fail("validate (%s): %v", when, v)
	}
}

func (r *run) digestHex() string { return hex.EncodeToString(r.digest.Sum(nil)) }

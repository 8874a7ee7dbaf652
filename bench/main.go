// Command bench is the repository's benchmark: six workloads, an
// end-to-end ledger measured with tracing off, and a per-layer trace
// measured from outside the program under test, by timing calls into
// its public functions and wrapping its public seams. README.md in this
// directory is the glossary; BENCHMARK.json at the repository root is
// the contract.
//
//	go run ./bench                      every workload, both passes
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	go run ./bench -compare a.json b.json
//
// Run from the repository root: outputs go to bench/out/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/memprof"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/routing"
)

// defaultSeconds and defaultSeed mirror run_seconds in BENCHMARK.json
// and the seed its baseline was recorded with.
const (
	defaultSeconds = 9
	defaultSeed    = 1
	defaultReps    = 3
	// tracedReps is how many untraced repetitions accompany the traced
	// one in a --trace 1 run (they give the trace overhead its base).
	tracedReps = 2
	// prefixCycles is the length of the refmodel prefix check.
	prefixCycles = 3000
	childTimeout = 150 * time.Second
)

// endToEnd lists the end-to-end metrics in report order. bound is the
// share of the base's median by which a metric may worsen before
// -compare calls it worse; BENCHMARK.json carries the same table.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"wall_s", "s", "lower", 0.25},
	{"router_cycles_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_avg_latency_cycles", "cycles", "lower", 0.25},
	{"sim_accepted_flits_per_node_cycle", "flits/node/cyc", "higher", 0.10},
}

// childResult is what one repetition reports to the parent.
type childResult struct {
	Metrics   map[string]float64 `json:"metrics"` // end-to-end
	Layers    map[string]float64 `json:"layers"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest"`
	// Unattributed is the share of the traced run's wall that no layer
	// span covers.
	Unattributed float64 `json:"unattributed_pct"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all six)")
		seed         = flag.Int64("seed", defaultSeed, "workload seed: every topology sample and traffic stream derives from it")
		seconds      = flag.Float64("seconds", defaultSeconds, "sizes the fixed work: about this many seconds of measured time per run on the reference host")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		reps         = flag.Int("reps", defaultReps, "untraced repetitions per workload (the median is reported)")
		pprofDir     = flag.String("pprof", "", "write a CPU profile of each traced child into this directory")
		compare      = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		out          = flag.String("out", "", "results file (default bench/out/results.json)")
		child        = flag.Bool("child", false, "internal: run one repetition and print its result")
		ops          = flag.Int("ops", 0, "internal: units of work of the repetition")
		traced       = flag.Bool("traced", false, "internal: record spans")
		cpuProfile   = flag.String("cpuprofile", "", "internal: CPU profile path of the child")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	var only *workload
	if *workloadName != "" {
		if only = findWorkload(*workloadName); only == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
	}
	if *child {
		if only == nil {
			fatal(errors.New("-child needs -workload"))
		}
		if err := runChild(only, *seed, *ops, *traced, *cpuProfile); err != nil {
			fatal(err)
		}
		return
	}

	if *reps < 2 {
		fatal(errors.New("-reps must be at least 2: the determinism check compares repetitions"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace != 0, pprofDir: *pprofDir}
	if *trace == 1 {
		cfg.reps = tracedReps
	}

	if only != nil {
		// The driver's form: one workload, one result object on the last
		// line of standard output.
		rep := measure(only, cfg)
		rep.print(os.Stdout, *trace != 1, *trace != 0)
		fmt.Println(rep.resultLine(*trace == 1))
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}

	file := resultsFile{Host: fingerprint(*seed), Seconds: *seconds}
	ok := true
	for _, w := range workloads {
		rep := measure(w, cfg)
		rep.print(os.Stdout, true, cfg.traced)
		file.Workloads = append(file.Workloads, rep)
		ok = ok && rep.Correct && rep.Failed == 0
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := writeJSON(path, file); err != nil {
		fatal(err)
	}
	fmt.Printf("results written to %s\n", path)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild performs one repetition in this process and prints its
// childResult as one JSON line.
func runChild(w *workload, seed int64, ops int, traced bool, cpuProfile string) error {
	if ops < 1 {
		return errors.New("-ops must be at least 1")
	}
	routing.ResetTableCache()
	if cpuProfile != "" {
		stop, err := memprof.StartCPUProfile(cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	r := newRun(w, seed, ops, traced)
	w.run(r)
	res := r.result()
	if traced {
		if err := r.tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result closes the repetition's books.
func (r *run) result() childResult {
	cs := routing.CacheStats()
	r.extra["routing.cache_hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Compiles))
	r.extra["routing.table_mb"] = float64(cs.Bytes) / (1 << 20)
	res := childResult{Attempted: r.attempted, Digest: r.digestHex()}
	if r.tr != nil {
		r.tr.finish()
		self := selfTimes(r.tr.spans)
		loose := self[layerNames[lRun]] + self[layerNames[lUnit]] + self[layerNames[lSetup]]
		res.Unattributed = 100 * ratio(float64(loose), float64(r.tr.spans[0].End))
		r.probeTables()
		if r.w.sidePass != nil {
			r.w.sidePass(r)
		}
	}
	wall := float64(r.wallNs) / 1e9
	setup := make([]float64, len(r.setupNs))
	for i, ns := range r.setupNs {
		setup[i] = float64(ns) / 1e9
	}
	res.Metrics = map[string]float64{
		"wall_s":                            wall,
		"router_cycles_per_s":               ratio(float64(r.routerCycles), wall),
		"setup_s":                           median(setup),
		"peak_rss_mb":                       peakRSSMB(),
		"sim_avg_latency_cycles":            ratio(float64(r.sumLatency), float64(r.delivered)),
		"sim_accepted_flits_per_node_cycle": ratio(float64(r.deliveredFlits), float64(r.routerCycles)),
	}
	res.Layers = r.layerMetrics()
	res.Failed, res.Failures = r.failed, r.failures
	return res
}

type config struct {
	seed     int64
	seconds  float64
	reps     int  // untraced repetitions
	traced   bool // add the traced repetition
	pprofDir string
}

// report is one workload's outcome: every repetition's end-to-end
// values, their medians, and the traced pass's per-layer values.
type report struct {
	Workload  string               `json:"workload"`
	Unit      string               `json:"unit"`
	Ops       int                  `json:"ops"` // per repetition
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	Failures  []string             `json:"failures,omitempty"`
	Digest    string               `json:"digest"`
	Reps      map[string][]float64 `json:"reps"`
	Median    map[string]float64   `json:"median"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	// Unattributed is the traced run's wall share outside every layer.
	Unattributed float64 `json:"unattributed_pct"`
}

// measure runs w's repetitions, each in a fresh child process so that
// heap, GC state and the process-wide table cache never leak between
// them, then the correctness gate's cross-repetition checks.
func measure(w *workload, cfg config) *report {
	ops := w.opsFor(cfg.seconds, defaultReps)
	rep := &report{Workload: w.name, Unit: w.unit, Ops: ops, Correct: true,
		Reps: map[string][]float64{}, Median: map[string]float64{}}
	miss := func(format string, args ...any) {
		rep.Correct = false
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	var first *childResult
	for i := 0; i < cfg.reps; i++ {
		res, err := spawn(w, cfg.seed, ops, false, "")
		if err != nil {
			miss("repetition %d: %v", i, err)
			continue
		}
		rep.add(res)
		for _, m := range endToEnd {
			rep.Reps[m.name] = append(rep.Reps[m.name], res.Metrics[m.name])
		}
		if first == nil {
			first = res
		} else if res.Digest != first.Digest {
			miss("repetition %d: Stats digest %s differs from repetition 0's %s", i, res.Digest, first.Digest)
		}
	}
	for name, vs := range rep.Reps {
		rep.Median[name] = median(vs)
	}
	if first != nil {
		rep.Digest = first.Digest
	}

	if cfg.traced {
		profile := ""
		if cfg.pprofDir != "" {
			if err := os.MkdirAll(cfg.pprofDir, 0o755); err != nil {
				fatal(err)
			}
			profile = filepath.Join(cfg.pprofDir, w.name+".pprof")
		}
		res, err := spawn(w, cfg.seed, ops, true, profile)
		if err != nil {
			miss("traced repetition: %v", err)
		} else {
			rep.add(res)
			if first != nil && res.Digest != first.Digest {
				miss("traced repetition: Stats digest %s differs from the untraced %s: tracing perturbed the simulation", res.Digest, first.Digest)
			}
			rep.Layers = res.Layers
			rep.Unattributed = res.Unattributed
			if first != nil {
				// Counters and unit timings come from an unperturbed run.
				for k, v := range first.Layers {
					rep.Layers[k] = v
				}
				walls := rep.Reps["wall_s"]
				base := median(walls)
				s := sortedCopy(walls)
				rep.Layers["bench.trace_overhead_pct"] = 100 * ratio(res.Metrics["wall_s"]-base, base)
				rep.Layers["bench.wall_spread_pct"] = 100 * ratio(s[len(s)-1]-s[0], base)
			}
		}
	}
	if err := prefixCheck(w, cfg.seed); err != nil {
		miss("%v", err)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep
}

func (rep *report) add(res *childResult) {
	rep.Attempted += res.Attempted
	rep.Failed += res.Failed
	for _, f := range res.Failures {
		// Repetitions are deterministic and fail alike: list each once.
		if !slices.Contains(rep.Failures, f) {
			rep.Failures = append(rep.Failures, f)
		}
	}
}

// spawn re-executes this binary as one repetition and returns its
// result.
func spawn(w *workload, seed int64, ops int, traced bool, cpuProfile string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed), "-ops", fmt.Sprint(ops)}
	if traced {
		args = append(args, "-traced")
	}
	if cpuProfile != "" {
		args = append(args, "-cpuprofile", cpuProfile)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	var res childResult
	if err := json.Unmarshal(outBytes, &res); err != nil {
		return nil, fmt.Errorf("child %s: decode result: %w", strings.Join(args, " "), err)
	}
	return &res, nil
}

// peakRSSMB is this process's peak resident set. It reads VmHWM, which
// belongs to the address space exec created: the rusage Maxrss a parent
// collects also counts the parent's own resident set at fork time,
// which for the small workloads is the larger of the two.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// prefixCheck is the refmodel leg of the correctness gate: the first
// prefixCycles cycles of the workload's first instance, stepped by the
// event core and by the full-scan reference model, must land on equal
// Stats.
func prefixCheck(w *workload, seed int64) error {
	stats := func(ref bool) network.Stats {
		routing.ResetTableCache()
		in := w.first(newRun(w, seed, 1, false))
		step := in.s.Step
		if ref {
			step = refmodel.New(in.s).Step
		}
		for c := 0; c < prefixCycles; c++ {
			in.tick()
			step()
		}
		return in.s.Stats
	}
	ev, ref := stats(false), stats(true)
	if ev != ref {
		return fmt.Errorf("refmodel prefix check: after %d cycles\nevent core: %+v\nrefmodel:   %+v", prefixCycles, ev, ref)
	}
	return nil
}

// resultLine is the object the driver reads from the last line.
func (rep *report) resultLine(layers bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if layers {
		for _, m := range perLayer {
			metrics[m.name] = metric{rep.Layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metric{rep.Median[m.name], m.unit}
		}
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// hostInfo is the fingerprint every results file carries.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			h.Commit += "+dirty"
		}
	}
	return h
}

type resultsFile struct {
	Host      hostInfo  `json:"host"`
	Seconds   float64   `json:"seconds"`
	Workloads []*report `json:"workloads"`
}

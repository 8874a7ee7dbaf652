package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fig8Grid is the reduced Fig. 8 grid the determinism and cancellation
// tests sweep: 3 cells x Quick().Topologies = 12 jobs.
var fig8Grid = map[topology.FaultKind][]int{
	topology.LinkFaults:   {1, 5},
	topology.RouterFaults: {2},
}

func renderFig8(t *testing.T, e *sweep.Engine) string {
	t.Helper()
	p := Quick()
	p.Engine = e
	return renderText(t, fig8Table(Fig8(p, []string{"uniform_random"}, fig8Grid)))
}

// TestFig8Determinism is the tentpole regression: the rendered sweep is
// byte-identical regardless of worker count, GOMAXPROCS, or whether the
// cells came from live simulation or the on-disk cache — and a
// warm-cache rerun performs zero simulations.
func TestFig8Determinism(t *testing.T) {
	ref := renderFig8(t, sweep.New(sweep.Config{Workers: 1}))
	if !strings.Contains(ref, "uniform_random") {
		t.Fatalf("reference output suspicious:\n%s", ref)
	}

	if got := renderFig8(t, sweep.New(sweep.Config{Workers: 8})); got != ref {
		t.Errorf("workers=8 output differs from workers=1:\n%s\n--- vs ---\n%s", got, ref)
	}

	prev := runtime.GOMAXPROCS(1)
	got := renderFig8(t, sweep.New(sweep.Config{Workers: 8}))
	runtime.GOMAXPROCS(prev)
	if got != ref {
		t.Errorf("GOMAXPROCS=1 output differs:\n%s\n--- vs ---\n%s", got, ref)
	}

	cache := &sweep.Cache{Dir: t.TempDir(), Salt: CodeVersion}
	cold := sweep.New(sweep.Config{Workers: 4, Cache: cache})
	if got := renderFig8(t, cold); got != ref {
		t.Errorf("cold-cache output differs:\n%s\n--- vs ---\n%s", got, ref)
	}
	st := cold.Stats()
	if st.Executed != st.Jobs || st.CacheHits != 0 {
		t.Fatalf("cold run stats = %+v", st)
	}
	if cache.Len() != st.Jobs {
		t.Fatalf("cache holds %d entries after %d jobs", cache.Len(), st.Jobs)
	}

	warm := sweep.New(sweep.Config{Workers: 4, Cache: cache, Resume: true})
	if got := renderFig8(t, warm); got != ref {
		t.Errorf("warm-cache output differs:\n%s\n--- vs ---\n%s", got, ref)
	}
	if st := warm.Stats(); st.Executed != 0 || st.CacheHits != st.Jobs {
		t.Fatalf("warm rerun simulated: stats = %+v, want zero executions", st)
	}
}

// TestCacheKeyGolden pins the canonical cache keys and addresses for a
// fixed parameter grid. If this fails, simulation-affecting parameters
// were added, removed, or re-encoded: update the golden file with
// -update AND bump experiments.CodeVersion so stale cache entries are
// never reused.
func TestCacheKeyGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range []Params{
		{},
		Quick(),
		{BaseSeed: 7, TDD: 64, SpinMode: true},
	} {
		for _, cell := range []*sweep.Key{
			p.cellKey("fig8").Str("pattern", "uniform_random").
				Str("kind", topology.LinkFaults.String()).Int("faults", 5).Int("topo", 0),
			p.cellKey("fig9").Str("kind", topology.RouterFaults.String()).
				Int("faults", 2).Int("topo", 1),
		} {
			fmt.Fprintf(&buf, "%s\n  %s\n", cell.Canonical(), cell.Hash(CodeVersion))
		}
	}
	golden := filepath.Join("testdata", "cache_keys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cache keys changed — existing cache entries are orphaned.\n"+
			"If intended, rerun with -update and bump CodeVersion.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

func TestCacheKeyCoversSimulationParams(t *testing.T) {
	base := Quick()
	baseHash := base.cellKey("fig8").Int("topo", 0).Hash(CodeVersion)

	// Every simulation-affecting field must move the address.
	mutations := map[string]Params{
		"Width":         {Width: 6, Height: 8, Topologies: 4, WarmupCycles: 300, MeasureCycles: 2000},
		"WarmupCycles":  func() Params { p := Quick(); p.WarmupCycles = 301; return p }(),
		"MeasureCycles": func() Params { p := Quick(); p.MeasureCycles = 2001; return p }(),
		"TDD":           func() Params { p := Quick(); p.TDD = 64; return p }(),
		"EscapeTimeout": func() Params { p := Quick(); p.EscapeTimeout = 50; return p }(),
		"BaseSeed":      func() Params { p := Quick(); p.BaseSeed = 1; return p }(),
		"SpinMode":      func() Params { p := Quick(); p.SpinMode = true; return p }(),
	}
	for field, p := range mutations {
		if p.cellKey("fig8").Int("topo", 0).Hash(CodeVersion) == baseHash {
			t.Errorf("changing %s does not change the cache key", field)
		}
	}

	// Topologies is a sweep extent, not cell content: growing the sample
	// must reuse the cells already on disk.
	wider := Quick()
	wider.Topologies = 50
	if wider.cellKey("fig8").Int("topo", 0).Hash(CodeVersion) != baseHash {
		t.Error("changing Topologies re-addresses existing cells")
	}
}

// TestSweepCancellationAndResume interrupts a sweep after two completed
// jobs, checks only complete cache entries remain, then resumes and
// verifies the finished output matches an uninterrupted run without
// re-simulating the cells already done.
func TestSweepCancellationAndResume(t *testing.T) {
	ref := renderFig8(t, sweep.New(sweep.Config{Workers: 1}))
	cache := &sweep.Cache{Dir: t.TempDir(), Salt: CodeVersion}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := sweep.New(sweep.Config{
		Workers: 1, Cache: cache, Ctx: ctx,
		Progress: func(s stats.ProgressSnapshot) {
			if s.Done >= 2 {
				cancel()
			}
		},
	})
	renderFig8(t, interrupted)
	st := interrupted.Stats()
	if st.Executed != 2 {
		t.Fatalf("interrupted run executed %d jobs, want 2: %+v", st.Executed, st)
	}
	if st.Cancelled == 0 || st.Executed+st.Cancelled != st.Jobs {
		t.Fatalf("interrupted run stats inconsistent: %+v", st)
	}

	// Only complete, parseable envelopes may exist on disk.
	if cache.Len() != st.Executed {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), st.Executed)
	}
	filepath.WalkDir(cache.Dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d == nil || d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("incomplete temp entry left behind: %s", p)
			return nil
		}
		raw, rerr := os.ReadFile(p)
		if rerr != nil {
			t.Errorf("unreadable entry %s: %v", p, rerr)
			return nil
		}
		var env struct {
			Key   string          `json:"key"`
			Salt  string          `json:"salt"`
			Value json.RawMessage `json:"value"`
		}
		if jerr := json.Unmarshal(raw, &env); jerr != nil || env.Key == "" || len(env.Value) == 0 {
			t.Errorf("corrupt entry %s: %v", p, jerr)
		}
		return nil
	})

	// Resume: only the remainder simulates, and the output is identical
	// to the uninterrupted reference.
	resumed := sweep.New(sweep.Config{Workers: 4, Cache: cache, Resume: true})
	if got := renderFig8(t, resumed); got != ref {
		t.Errorf("resumed output differs from uninterrupted run:\n%s\n--- vs ---\n%s", got, ref)
	}
	rst := resumed.Stats()
	if rst.CacheHits != st.Executed {
		t.Errorf("resume re-simulated cached cells: %+v", rst)
	}
	if rst.Executed != rst.Jobs-st.Executed {
		t.Errorf("resume executed %d jobs, want %d: %+v", rst.Executed, rst.Jobs-st.Executed, rst)
	}
}

// Package memprof is the allocation-observability harness: thin wrappers
// over runtime.MemStats and runtime/pprof that let the benchmark driver
// and the CLIs measure steady-state allocation rates and capture
// profiles without each call site repeating the boilerplate.
//
// The central measurement is a Snapshot pair around a work window:
// Mallocs and TotalAlloc are monotonic lifetime counters, so the delta
// is exact regardless of when (or whether) the garbage collector runs in
// between. This is what the repository benchmark's
// network.allocs_per_kcycle / network.bytes_per_kcycle rows are built on.
package memprof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Snapshot is a point-in-time reading of the allocation counters.
type Snapshot struct {
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64
	// TotalAlloc is the cumulative bytes allocated for heap objects.
	TotalAlloc uint64
}

// Take reads the runtime counters. ReadMemStats stops the world briefly,
// so callers should sample outside any timed region.
func Take() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Snapshot{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc}
}

// Delta is the allocation activity between two snapshots.
type Delta struct {
	// Allocs is the number of heap objects allocated in the window.
	Allocs uint64
	// Bytes is the heap bytes allocated in the window.
	Bytes uint64
}

// Since returns the activity from earlier to s. Counters are monotonic;
// passing snapshots in the wrong order underflows, so don't.
func (s Snapshot) Since(earlier Snapshot) Delta {
	return Delta{Allocs: s.Mallocs - earlier.Mallocs, Bytes: s.TotalAlloc - earlier.TotalAlloc}
}

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops the profile and closes the file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile collects garbage (so the profile reflects live
// objects, not floating garbage) and writes the heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package reconfig

// TableStats counts the manager's table-repair activity since
// construction. Surfaced per contender by the churn experiment (sbsweep
// -fig churn).
type TableStats struct {
	// Hits counts epochs whose repair rewrote no entry; Misses counts
	// the rest, so Hits+Misses is the number of epochs. The initial
	// compile at Manager construction counts as the first miss.
	Hits, Misses int64
	// Incremental and Full count how epochs were compiled.
	Incremental, Full int64
	// Column fates summed over the incremental compiles
	// (routing.RecompileStats).
	ColsShared, ColsRepaired, ColsRebuilt int64
	// EntriesRewritten is the deterministic table-install work metric:
	// entries whose value changed, summed over every epoch (a full
	// compile charges the whole table).
	EntriesRewritten int64
	// CompileNs is total wall time spent bringing the table to each
	// epoch. It is observability only — nothing simulated depends on it.
	CompileNs int64
}

// TableStats returns a snapshot of the manager's table-compilation
// counters.
func (m *Manager) TableStats() TableStats { return m.tabStats }

package routing

import (
	"bytes"
	"slices"
)

// Test-only views of the compiled tables: the incremental-vs-full
// equality the property and fuzz tests assert, the snapshots the
// in-place contract is checked against, and the repairer's stamp.

func (t *tables) equal(o *tables) bool {
	return t.n == o.n && slices.EqualFunc(t.cols, o.cols, func(a, b col) bool {
		return slices.Equal(a.dist, b.dist) && bytes.Equal(a.mask, b.mask)
	})
}

// clone deep-copies the table arrays.
func (t *tables) clone() *tables {
	c := &tables{n: t.n, cols: make([]col, t.n)}
	for i, x := range t.cols {
		c.cols[i] = col{dist: slices.Clone(x.dist), mask: slices.Clone(x.mask)}
	}
	return c
}

// MinimalTablesEqual reports whether a and b hold bit-identical compiled
// tables.
func MinimalTablesEqual(a, b *Minimal) bool { return a.tab.equal(b.tab) }

// masksEqual reports whether a and b hold bit-identical candidate masks,
// whatever distances either keeps.
func (t *tables) masksEqual(o *tables) bool {
	return t.n == o.n && slices.EqualFunc(t.cols, o.cols, func(a, b col) bool { return bytes.Equal(a.mask, b.mask) })
}

// keepsDist reports whether any column of t holds a distance row.
func (t *tables) keepsDist() bool {
	return slices.ContainsFunc(t.cols, func(c col) bool { return c.dist != nil })
}

// snapshot returns a deep copy of m that later in-place Recompiles of m
// leave alone.
func (m *Minimal) snapshot() *Minimal { return &Minimal{g: m.g, tab: m.tab.clone()} }

// columnDiff compares destination dst's column in a and b: whether the
// distance rows differ, and how many distance plus mask entries do.
func columnDiff(a, b *tables, dst int) (distDiffers bool, entries int64) {
	ca, cb := a.cols[dst], b.cols[dst]
	for i := range ca.dist {
		if ca.dist[i] != cb.dist[i] {
			distDiffers = true
			entries++
		}
	}
	for i := range ca.mask {
		if ca.mask[i] != cb.mask[i] {
			entries++
		}
	}
	return distDiffers, entries
}

// presetRepairStamp sets the repairer's stamp, allocating the repairer if
// no incremental Recompile has yet, so a test can drive it across the
// wrap.
func (m *Minimal) presetRepairStamp(s int32) {
	if m.rep == nil {
		m.rep = newMinRepairer(m.tab.n)
	}
	m.rep.stamp = s
}

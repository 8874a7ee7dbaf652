package routing

import (
	"bytes"
	"slices"

	"repro/internal/geom"
)

// Test-only views of the compiled tables: the incremental-vs-full
// equality and the copy-on-write column-sharing invariant the property
// and fuzz tests assert.

func (t *tables) equal(o *tables) bool {
	return t.n == o.n && slices.EqualFunc(t.cols, o.cols, func(a, b col) bool {
		return slices.Equal(a.dist, b.dist) && bytes.Equal(a.mask, b.mask)
	})
}

// shares reports whether a and b alias the same pages.
func (a col) shares(b col) bool {
	return len(a.dist) > 0 && len(b.dist) > 0 && &a.dist[0] == &b.dist[0] &&
		len(a.mask) > 0 && len(b.mask) > 0 && &a.mask[0] == &b.mask[0]
}

// MinimalTablesEqual reports whether a and b hold bit-identical compiled
// tables.
func MinimalTablesEqual(a, b *Minimal) bool { return a.tab.equal(b.tab) }

// UpDownTablesEqual reports whether a and b route identically: same
// levels, channel classification, state-graph distances, and masks.
func UpDownTablesEqual(a, b *UpDownTable) bool {
	return slices.Equal(a.level, b.level) && bytes.Equal(a.upMask, b.upMask) && a.tab.equal(b.tab)
}

// SharesColumn reports whether m and o share destination dst's column
// pages pointer-identically.
func (m *Minimal) SharesColumn(o *Minimal, dst geom.NodeID) bool {
	return m.tab.cols[dst].shares(o.tab.cols[dst])
}

// SharesColumn is the UpDownTable analog of Minimal.SharesColumn.
func (u *UpDownTable) SharesColumn(o *UpDownTable, dst geom.NodeID) bool {
	return u.tab.cols[dst].shares(o.tab.cols[dst])
}

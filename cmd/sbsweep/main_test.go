package main

import (
	"strings"
	"testing"
)

func TestSelectFigs(t *testing.T) {
	// Retired and misspelt values are errors that name the valid list,
	// not silent no-ops.
	for _, fig := range []string{"bench", "scale16", "", "14"} {
		_, err := selectFigs(fig)
		if err == nil {
			t.Errorf("-fig %q accepted", fig)
			continue
		}
		for _, id := range append([]string{"all"}, figIDs...) {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("-fig %q: error %q does not name %q", fig, err, id)
			}
		}
	}

	// A named figure selects exactly itself — scalegrid included.
	for _, id := range figIDs {
		sel, err := selectFigs(id)
		if err != nil || len(sel) != 1 || !sel[id] {
			t.Errorf("-fig %s selected %v (err %v), want only itself", id, sel, err)
		}
	}

	// "all" runs every sweep but not the wall-clock timing table.
	all, err := selectFigs("all")
	if err != nil {
		t.Fatal(err)
	}
	if all["scalegrid"] {
		t.Error(`-fig all selected scalegrid`)
	}
	if len(all) != len(figIDs)-1 {
		t.Errorf("-fig all selected %d of %d figures, want all but scalegrid", len(all), len(figIDs))
	}
}

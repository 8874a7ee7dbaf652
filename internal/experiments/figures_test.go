package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// blankWallClock empties the cmp_p50_ns / cmp_p99_ns cells of the churn
// block — measured recompile wall time, the only run-to-run noise in the
// registry's CSV — and re-encodes the stream.
func blankWallClock(t *testing.T, b []byte) []byte {
	t.Helper()
	r := csv.NewReader(bytes.NewReader(b))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	var blank []int // columns to empty while records keep the churn header's width
	width := 0
	for _, rec := range recs {
		if len(rec) != width {
			blank, width = nil, len(rec)
			for i, name := range rec {
				if name == "cmp_p50_ns" || name == "cmp_p99_ns" {
					blank = append(blank, i)
				}
			}
			continue
		}
		for _, i := range blank {
			rec[i] = ""
		}
	}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFiguresGolden pins what `sbsweep -fig all -scale quick -topos 1
// -format csv` prints, byte for byte, by running the registry the way
// sbsweep does. The golden was captured from the last tree that rendered
// each figure by hand (its failures and scale blocks, which that tree
// could only print as text, are the reviewed additions), so it proves
// the Table renderer, the comparison kernel and every figure's columns
// at once. It also holds the two committed records that cost nothing to
// regenerate, results/t1.txt and results/ablation.txt, to the text view.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale (~10 s)")
	}
	p := Quick()
	p.Topologies = 1
	var got bytes.Buffer
	text := map[string]string{}
	for _, f := range Figures {
		if f.Standalone {
			continue
		}
		tables, err := f.Run(p, true, 0)
		if err != nil {
			t.Fatalf("-fig %s: %v", f.ID, err)
		}
		got.WriteString(renderCSV(t, tables...))
		text[f.ID] = renderText(t, tables...)
	}

	check := func(path string, got []byte, norm func([]byte) []byte) {
		t.Helper()
		got = norm(got)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if want = norm(want); !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs (rerun with -update if intended)\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d (rerun with -update if intended)", path, len(gl), len(wl))
		}
	}
	asIs := func(b []byte) []byte { return b }
	check(filepath.Join("testdata", "all_quick.csv.golden"), got.Bytes(),
		func(b []byte) []byte { return blankWallClock(t, b) })
	check(filepath.Join("..", "..", "results", "t1.txt"), []byte(text["t1"]), asIs)
	check(filepath.Join("..", "..", "results", "ablation.txt"), []byte(text["ablation"]), asIs)
}

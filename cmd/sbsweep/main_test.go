package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSelectFigs(t *testing.T) {
	// Retired and misspelt values are errors that name every valid ID,
	// not silent no-ops.
	for _, fig := range []string{"bench", "scale16", "", "14"} {
		_, err := selectFigs(fig)
		if err == nil {
			t.Errorf("-fig %q accepted", fig)
			continue
		}
		if !strings.Contains(err.Error(), "all") {
			t.Errorf("-fig %q: error %q does not name %q", fig, err, "all")
		}
		for _, f := range experiments.Figures {
			if !strings.Contains(err.Error(), f.ID) {
				t.Errorf("-fig %q: error %q does not name %q", fig, err, f.ID)
			}
		}
	}

	// A named figure selects exactly itself — standalone ones included.
	standalone := 0
	for _, f := range experiments.Figures {
		sel, err := selectFigs(f.ID)
		if err != nil || len(sel) != 1 || sel[0].ID != f.ID {
			t.Errorf("-fig %s selected %v (err %v), want only itself", f.ID, sel, err)
		}
		if f.Standalone {
			standalone++
		}
	}
	if standalone == 0 {
		t.Error("registry marks nothing standalone; scalegrid must be")
	}

	// "all" is every non-standalone entry, in registry order.
	all, err := selectFigs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.Figures)-standalone {
		t.Errorf("-fig all selected %d of %d figures, want all but the %d standalone",
			len(all), len(experiments.Figures), standalone)
	}
	for _, f := range all {
		if f.Standalone {
			t.Errorf("-fig all selected standalone %s", f.ID)
		}
	}
}

// TestMain lets the tests below run the real main(): the test binary
// re-executes itself with SBSWEEP_ARGS set and becomes sbsweep.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SBSWEEP_ARGS"); ok {
		os.Args = append([]string{"sbsweep"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("sbsweep", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sbsweep runs main() with args in a child process.
func sbsweep(t *testing.T, args string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SBSWEEP_ARGS="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

func TestBadFlagValuesExit2(t *testing.T) {
	for _, args := range []string{"-fig t1 -format cvs", "-fig nope", "-fig t1 -scale medium"} {
		stdout, stderr, exit := sbsweep(t, args+" -no-cache")
		if exit != 2 || stdout != "" || !strings.Contains(stderr, "sbsweep:") {
			t.Errorf("sbsweep %s: exit %d, stdout %q, stderr %q; want exit 2 and a diagnostic only", args, exit, stdout, stderr)
		}
	}
}

// TestEveryFormatEverywhere: the two experiments that used to print a
// fixed-width table under -format csv now emit CSV like the rest.
func TestEveryFormatEverywhere(t *testing.T) {
	for fig, rows := range map[string]int{"failures": 4, "scale": 3} {
		stdout, stderr, exit := sbsweep(t, "-fig "+fig+" -format csv -scale quick -topos 1 -no-cache")
		if exit != 0 {
			t.Fatalf("-fig %s: exit %d\n%s", fig, exit, stderr)
		}
		recs, err := csv.NewReader(strings.NewReader(stdout)).ReadAll()
		if err != nil {
			t.Fatalf("-fig %s -format csv is not CSV: %v\n%s", fig, err, stdout)
		}
		if len(recs) != rows+1 || len(recs[0]) != 8 {
			t.Errorf("-fig %s: %d records of %d fields, want %d of 8", fig, len(recs), len(recs[0]), rows+1)
		}
	}
}

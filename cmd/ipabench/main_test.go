package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipa/internal/bench"
)

// TestUnknownExperimentFails: a misspelt -exp name runs nothing, exits
// non-zero, lists the valid names and writes no JSON report.
func TestUnknownExperimentFails(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "tabel1", "-json", "-out", out}, &stdout, &stderr); code == 0 {
		t.Fatalf("exit code 0 for an unknown experiment")
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment produced output:\n%s", stdout.String())
	}
	for _, name := range bench.Names() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error does not list %q: %s", name, stderr.String())
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("unknown experiment wrote a JSON report (stat err %v)", err)
	}
}

// TestExpUsageListsRegistry: the -exp usage string names exactly the
// registered experiments, in registry order, plus "all".
func TestExpUsageListsRegistry(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("-h exit code %d", code)
	}
	usage, ok := strings.CutPrefix(expUsage(), "experiment: ")
	if !ok {
		t.Fatalf("usage %q lacks its prefix", expUsage())
	}
	want := append(bench.Names(), "all")
	if got := strings.Split(usage, ", "); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("-exp usage lists %v, want %v", got, want)
	}
	if !strings.Contains(stderr.String(), expUsage()) {
		t.Fatalf("-h output does not show the -exp usage:\n%s", stderr.String())
	}
}

// TestSelectionPullsInCompanions: -exp longevity derives its rows from the oltp
// result, so selecting it runs oltp first; -exp concurrent also runs the
// readmix ladder.
func TestSelectionPullsInCompanions(t *testing.T) {
	for exp, want := range map[string]string{"longevity": "oltp,longevity", "concurrent": "concurrent,readmix"} {
		entries, err := bench.Select(exp)
		if err != nil {
			t.Fatalf("Select(%s): %v", exp, err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name)
		}
		if strings.Join(got, ",") != want {
			t.Errorf("-exp %s runs %v, want %s", exp, got, want)
		}
	}
}

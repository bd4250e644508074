package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestBadInputsExitTwo: malformed flag values fail before anything
// runs, with status 2 and one line on stderr — not a panic from deep in
// the simulator, and not a silent fallback.
func TestBadInputsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "6", "-ssds", "-3"},
		{"-fig", "6", "-runtime", "-1s"},
		{"-fig", "6", "-ssds", "0"},
		{"-fig", "6", "-format", "xml"},
		{"-ablate", "faults", "-ssds", "4"},
		{"-ablate", "recovery", "-ssds", "4"},
		{"-ablate", "writes", "-ssds", "4"},
		{"-ablate", "hedging", "-ssds", "4"},
		{"-all", "-ssds", "4"},
		{"-fig", "5"},
		{"-table", "3"},
		{"-ablate", "fig6"},
		{"-fig", "6", "-seeds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no output, one stderr line",
				args, code, stdout.String(), stderr.String())
		}
	}
}

// TestJSONOutputDecodes: -format json writes only JSON to stdout (the
// wall-clock banner goes to stderr), for a notes-only report and for an
// ablation.
func TestJSONOutputDecodes(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "2", "-format", "json"},
		{"-ablate", "recovery", "-ssds", "9", "-runtime", "10ms", "-format", "json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, stderr.String())
		}
		var r core.Report
		if err := json.Unmarshal(stdout.Bytes(), &r); err != nil || len(r.Sections) == 0 {
			t.Errorf("%q: stdout is not a JSON report (%v):\n%s", args, err, stdout.String())
		}
		if !strings.Contains(stderr.String(), "wall, parallel=") {
			t.Errorf("%q: wall-clock banner missing from stderr: %q", args, stderr.String())
		}
	}
}

// TestDocsListRegistry: every registry entry appears in the package
// doc's usage list, and every ablation in the -ablate flag help.
func TestDocsListRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("\npackage main"))])
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	help := regexp.MustCompile(`(?m)^  -ablate string\n.*$`).FindString(stderr.String())
	for _, e := range core.Experiments() {
		if !regexp.MustCompile(`(?m)^//\tafareport ` + regexp.QuoteMeta(flagOf(e)) + `\s`).MatchString(doc) {
			t.Errorf("package doc usage list lacks %q", "afareport "+flagOf(e))
		}
		if e.Ablation() && !strings.Contains(help, " "+e.Name+" ") && !strings.HasSuffix(help, " "+e.Name) {
			t.Errorf("-ablate help lacks %q: %q", e.Name, help)
		}
	}
}

// TestNightlyMatrixMatchesRegistry: the nightly seed-sweep matrix is
// exactly the ablations whose registry entry defines a Ladder.
func TestNightlyMatrixMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("../../.github/workflows/nightly.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^\s*ablation: \[(.*)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("nightly.yml has no ablation matrix")
	}
	var want []string
	for _, e := range core.Experiments() {
		if e.Ablation() && e.Ladder != nil {
			want = append(want, e.Name)
		}
	}
	if got := strings.Join(strings.Fields(strings.ReplaceAll(string(m[1]), ",", " ")), ","); got != strings.Join(want, ",") {
		t.Errorf("nightly.yml matrix = [%s], registry ablations with a Ladder = %v", got, want)
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The files under testdata/golden lock the output of every registry
// experiment. They were generated once, by the afareport binary of the
// commit before the registry existed, at sweepOpts scale with the
// wall-clock banner stripped, and are never regenerated to make a test
// pass:
//
//	strip() { grep -v '^\[[^]]* wall, parallel=[0-9]*\]$'; }
//	A="-ssds 12 -runtime 60ms -seed 7 -solo-runs 2"
//	afareport -fig N $A | strip > figN.txt        # N = 6 … 13
//	afareport -table N $A | strip > tableN.txt    # N = 1, 2
//	afareport -headline $A | strip > headline.txt
//	afareport -ablate X $A | strip > X.txt        # every ablation but tail
//	afareport -ablate tail -ssds 64 -runtime 60ms -seed 7 -solo-runs 2 | strip > tail.txt
//	afareport -fig 6 -seeds 2 $A | strip > fig6-seeds2.txt
//	afareport -ablate iopath -seeds 2 $A | strip > iopath-seeds2.txt
//	afareport -fig 6 -format json $A | strip | sed '1,2d' > fig6.json
//	afareport -fig 10 -format csv $A | strip | sed '1,2d' > fig10.csv
//
// (tail is locked at 64 SSDs because that binary panicked below 16.)
// Text is compared as whitespace-normalised lines — the tokens of each
// non-blank line, in order — so a layout change may move column padding
// or blank lines but never a label or a number. JSON and CSV are
// compared byte for byte.

// tokenLines normalises text to the tokens of its non-blank lines.
func tokenLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			out = append(out, strings.Join(f, " "))
		}
	}
	return out
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkGoldenText(t *testing.T, name string, r Report) {
	t.Helper()
	var buf bytes.Buffer
	WriteReport(&buf, r)
	got, want := tokenLines(buf.String()), tokenLines(string(golden(t, name)))
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Errorf("%s differs at line %d:\n got:\n%s\n want:\n%s", name, i+1,
				strings.Join(got[i:min(i+3, len(got))], "\n"), strings.Join(want[i:min(i+3, len(want))], "\n"))
			return
		}
	}
}

// TestGolden holds every registry experiment, two seed sweeps, and the
// figure JSON/CSV exports to the locked output.
func TestGolden(t *testing.T) {
	reports := registryReports(1)
	for i, e := range Experiments() {
		if e.Name != "tail" {
			checkGoldenText(t, e.Name+".txt", reports[i])
		}
	}

	o := sweepOpts()
	tail, _ := Lookup("tail")
	wide := o
	wide.NumSSDs = 64
	checkGoldenText(t, "tail.txt", tail.Report(wide, 1))
	for _, name := range []string{"fig6", "iopath"} {
		e, _ := Lookup(name)
		checkGoldenText(t, name+"-seeds2.txt", e.Report(o, 2))
	}

	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, reportNamed(reports, "fig6")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden(t, "fig6.json")) {
		t.Errorf("fig 6 JSON differs from testdata/golden/fig6.json:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteReportCSV(&buf, reportNamed(reports, "fig10")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden(t, "fig10.csv")) {
		t.Error("fig 10 CSV differs from testdata/golden/fig10.csv")
	}
}

// TestReportJSONDecodes: the JSON export of every registry experiment
// decodes with encoding/json.
func TestReportJSONDecodes(t *testing.T) {
	for _, r := range registryReports(1) {
		var buf bytes.Buffer
		if err := WriteReportJSON(&buf, r); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		var v any
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil || v == nil {
			t.Errorf("%s: JSON export does not decode: %v", r.Name, err)
		}
	}
}

// TestTailAblationSmallFleet: the tail ablation caps its stripe widths
// at the fleet size instead of panicking (it used to ask for width 16
// from 12 SSDs).
func TestTailAblationSmallFleet(t *testing.T) {
	r := reportNamed(registryReports(1), "tail")
	if len(r.Sections) != 2 {
		t.Fatalf("tail report has %d sections, want one per config", len(r.Sections))
	}
	for _, s := range r.Sections {
		if len(s.Notes) != 2 || !strings.HasPrefix(s.Notes[0], "width  1:") || !strings.HasPrefix(s.Notes[1], "width  4:") {
			t.Errorf("%s: widths at %d SSDs = %q, want 1 and 4", s.Heading, sweepOpts().NumSSDs, s.Notes)
		}
	}
}

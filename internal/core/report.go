package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
)

// Report is the one result shape every registry experiment returns (see
// Experiment): a titled list of sections, each holding arms with their
// ladders, then named counters, then notes. WriteReport renders it as
// text, WriteReportJSON and WriteReportCSV as machine-readable exports.
type Report struct {
	Name     string    `json:"name"`
	Title    string    `json:"title"`
	Sections []Section `json:"sections"`
	// Samples are raw (completion time, latency) logs, one per logged
	// SSD — the Fig 10 scatter. They export as CSV only.
	Samples [][]stats.Sample `json:"-"`
	// Result is the typed result the report was built from (a Run*
	// return value), for Go callers that need fields the report does
	// not show. It is left out of the JSON export.
	Result any `json:"-"`
}

// View selects how a section's arms print as text. Every view exports
// the full per-arm ladders as JSON.
type View string

const (
	// ViewNone prints no arm table: the section's counters present the
	// arms in text, and the ladders are in the JSON export only.
	ViewNone View = ""
	// ViewFleet prints one cross-SSD mean/std/min/max table per arm
	// (WriteDistributionTable).
	ViewFleet View = "fleet"
	// ViewCompare prints the arms side by side, a mean block and a std
	// block (WriteComparisonTable).
	ViewCompare View = "compare"
)

// Section is one block of a report: an optional heading line, arms with
// their ladders, named counters, and notes, printed in that order.
type Section struct {
	Heading  string   `json:"heading,omitempty"`
	View     View     `json:"view,omitempty"`
	Arms     []Arm    `json:"arms,omitempty"`
	Counters *Table   `json:"counters,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

// Arm is one measured configuration: its latency ladders, plus the
// run's failure trace where faults were injected (JSON only).
type Arm struct {
	Distribution
	Trace string
}

// ladderArm wraps client ladders (one per client, not per SSD) as an arm.
func ladderArm(name string, ls ...stats.Ladder) Arm {
	return Arm{Distribution: Distribution{Config: name, Ladders: ls, Summary: stats.Summarize(ls)}}
}

// traced attaches a failure trace to the arm.
func (a Arm) traced(trace string) Arm {
	a.Trace = trace
	return a
}

// armsOf wraps distributions as arms.
func armsOf(ds []Distribution) []Arm {
	arms := make([]Arm, len(ds))
	for i, d := range ds {
		arms[i].Distribution = d
	}
	return arms
}

// Table is a grid of named counters: a header row (Corner, then
// Columns), then one Row per counter. Columns are the arms, or — for
// tables whose rows are arms — the metrics.
type Table struct {
	Corner  string   `json:"corner"`
	Columns []string `json:"columns"`
	// ColPrec holds each column's decimals in text (missing: 0).
	ColPrec []int `json:"-"`
	Rows    []Row `json:"rows"`
}

// Row is one named counter across a table's columns.
type Row struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	// Prec is the row's decimals in text; a cell prints with the larger
	// of its row's and its column's.
	Prec int `json:"-"`
	// Mark annotates the row's end ("<- drop").
	Mark string `json:"mark,omitempty"`
}

// stat is one named, formatted metric of a T.
type stat[T any] struct {
	name string
	prec int
	of   func(T) float64
}

// count is a stat with no decimals over an integer field.
func count[T any](name string, of func(T) int64) stat[T] {
	return stat[T]{name: name, of: func(x T) float64 { return float64(of(x)) }}
}

// statRows builds a table with one row per stat and one column per item.
func statRows[T any](corner string, cols []string, items []T, stats ...stat[T]) *Table {
	t := &Table{Corner: corner, Columns: cols}
	for _, s := range stats {
		r := Row{Name: s.name, Prec: s.prec}
		for _, it := range items {
			r.Values = append(r.Values, s.of(it))
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// statCols builds a table with one row per item and one column per stat.
func statCols[T any](corner string, items []T, name func(T) string, stats ...stat[T]) *Table {
	t := &Table{Corner: corner}
	for _, s := range stats {
		t.Columns = append(t.Columns, s.name)
		t.ColPrec = append(t.ColPrec, s.prec)
	}
	for _, it := range items {
		r := Row{Name: name(it)}
		for _, s := range stats {
			r.Values = append(r.Values, s.of(it))
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// rungStats are the seven ladder rungs of a T, in microseconds, given
// the rung's value in nanoseconds.
func rungStats[T any](rung func(x T, i int) float64) []stat[T] {
	out := make([]stat[T], stats.NumRungs)
	for i := range out {
		out[i] = stat[T]{name: stats.LadderLabels[i], prec: 1, of: func(x T) float64 { return rung(x, i) / 1e3 }}
	}
	return out
}

// meanRung is an arm's cross-ladder mean at rung i.
func meanRung(a Arm, i int) float64 { return a.Summary.Mean[i] }

// armTables is the two-section layout of the stripe ablations: the
// arms' latency ladders as a rung × arm table, then their counters as
// a counter × arm table.
func armTables[T any](runs []T, arm func(T) Arm, counters ...stat[T]) []Section {
	var lat Section
	var names []string
	for _, r := range runs {
		lat.Arms = append(lat.Arms, arm(r))
		names = append(names, lat.Arms[len(lat.Arms)-1].Config)
	}
	lat.Counters = statRows("lat(µs)", names, lat.Arms, rungStats(meanRung)...)
	return []Section{lat, {Counters: statRows("counter", names, runs, counters...)}}
}

// Write renders the table with padded columns: the row names left-
// aligned, the values right-aligned.
func (t *Table) Write(w io.Writer) {
	lines := [][]string{append([]string{t.Corner}, t.Columns...)}
	for _, r := range t.Rows {
		line := []string{r.Name}
		for j, v := range r.Values {
			prec := r.Prec
			if j < len(t.ColPrec) && t.ColPrec[j] > prec {
				prec = t.ColPrec[j]
			}
			line = append(line, strconv.FormatFloat(v, 'f', prec, 64))
		}
		lines = append(lines, line)
	}
	var widths []int
	for _, line := range lines {
		for j, cell := range line {
			if j == len(widths) {
				widths = append(widths, 0)
			}
			widths[j] = max(widths[j], utf8.RuneCountInString(cell))
		}
	}
	for i, line := range lines {
		var b strings.Builder
		for j, cell := range line {
			pad := strings.Repeat(" ", widths[j]-utf8.RuneCountInString(cell))
			if j == 0 {
				b.WriteString(cell + pad)
			} else {
				b.WriteString("  " + pad + cell)
			}
		}
		if i > 0 && t.Rows[i-1].Mark != "" {
			b.WriteString("  " + t.Rows[i-1].Mark)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// WriteReport renders a report as text: a "=== title ===" banner, then
// each section's heading, arm table, counters and notes.
func WriteReport(w io.Writer, r Report) {
	fmt.Fprintf(w, "\n=== %s ===\n", r.Title)
	for i, s := range r.Sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if s.Heading != "" {
			fmt.Fprintln(w, s.Heading)
		}
		switch s.View {
		case ViewNone:
		case ViewFleet:
			for _, a := range s.Arms {
				WriteDistributionTable(w, a.Distribution)
			}
		case ViewCompare:
			WriteComparisonTable(w, s.distributions())
		default:
			panic(fmt.Sprintf("core: unknown report view %q", s.View))
		}
		if s.Counters != nil {
			if s.View != ViewNone {
				fmt.Fprintln(w)
			}
			s.Counters.Write(w)
		}
		for _, n := range s.Notes {
			fmt.Fprintln(w, n)
		}
	}
}

// distributions lists the section's arm distributions.
func (s Section) distributions() []Distribution {
	ds := make([]Distribution, len(s.Arms))
	for i, a := range s.Arms {
		ds[i] = a.Distribution
	}
	return ds
}

func configs(ds []Distribution) []string {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Config
	}
	return names
}

// linesOf captures what a text renderer writes, one note per line.
func linesOf(render func(io.Writer)) []string {
	var buf bytes.Buffer
	render(&buf)
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}

// WriteDistributionTable renders a Distribution the way the figures are
// read: one row per ladder rung, with the cross-SSD mean, standard
// deviation, and min/max spread, in microseconds.
func WriteDistributionTable(w io.Writer, d Distribution) {
	fmt.Fprintf(w, "config=%s  ssds=%d\n", d.Config, d.Summary.N)
	s := d.Summary
	statRows("rung", []string{"mean(µs)", "std(µs)", "min(µs)", "max(µs)"}, [][stats.NumRungs]float64{s.Mean, s.Std, s.Min, s.Max},
		rungStats(func(col [stats.NumRungs]float64, i int) float64 { return col[i] })...).Write(w)
}

// WriteComparisonTable renders several Distributions side by side (Fig 12 /
// Fig 14 style): one block for means, one for standard deviations.
func WriteComparisonTable(w io.Writer, ds []Distribution) {
	names := configs(ds)
	statRows("mean(µs)", names, ds, rungStats(func(d Distribution, i int) float64 { return d.Summary.Mean[i] })...).Write(w)
	fmt.Fprintln(w)
	statRows("std(µs)", names, ds, rungStats(func(d Distribution, i int) float64 { return d.Summary.Std[i] })...).Write(w)
}

// WriteTableII renders Table II.
func WriteTableII(w io.Writer) {
	fmt.Fprintf(w, "%-8s %16s %16s %16s %16s %6s\n",
		"Fig", "SSDs/phys core", "IRQ/log core", "FIO/log core", "FIO threads", "runs")
	for _, row := range TableII() {
		per := fmt.Sprintf("%d", row.SSDsPerPhysCore)
		if row.SSDsPerPhysCore == 0 {
			per = "solo"
		}
		fmt.Fprintf(w, "%-8s %16s %16d %16d %16d %6d\n",
			row.Fig, per, row.IRQPerLogicalCore, row.FIOPerLogicalCore,
			row.FIOThreadsInSystem, row.Runs)
	}
}

// WriteFig10Summary renders the scatter data: an ASCII time×latency
// scatter of all logged samples (the shape of the paper's Fig 10 — a flat
// baseline with periodic spike columns), followed by the detected spike
// clusters.
func WriteFig10Summary(w io.Writer, r Fig10Result) {
	total := 0
	var all []stats.Sample
	var horizon int64
	for _, log := range r.Logs {
		total += len(log)
		all = append(all, log...)
		if n := len(log); n > 0 && log[n-1].At > horizon {
			horizon = log[n-1].At
		}
	}
	clusters := append([]int64(nil), r.SpikeClusters...)
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	fmt.Fprintf(w, "logged SSDs=%d  samples=%d  firmware SMART windows=%d  spike clusters=%d\n",
		len(r.Logs), total, r.SMARTWindows, len(clusters))

	if horizon > 0 && total > 0 {
		buckets := stats.Bucketize(all, horizon+1, 72, 200_000)
		bands, labels := stats.DefaultLatencyBands()
		fmt.Fprintf(w, "\nmax latency per time bucket (%.0f ms/column):\n",
			float64(horizon)/72/1e6)
		fmt.Fprint(w, stats.RenderScatter(buckets, bands, labels))
	}

	for i, c := range clusters {
		if i >= 16 {
			fmt.Fprintf(w, "  ... %d more\n", len(clusters)-i)
			break
		}
		fmt.Fprintf(w, "  cluster at t=%.3fs\n", float64(c)/1e9)
	}
}

// WriteHeadline renders the abstract's claim check.
func WriteHeadline(w io.Writer, h Headline) {
	fmt.Fprintf(w, "max latency across SSDs (µs):\n")
	fmt.Fprintf(w, "  default: mean=%.1f std=%.1f\n", h.DefaultMeanMax/1e3, h.DefaultStdMax/1e3)
	fmt.Fprintf(w, "  tuned:   mean=%.1f std=%.1f\n", h.TunedMeanMax/1e3, h.TunedStdMax/1e3)
	fmt.Fprintf(w, "  improvement: mean ×%.1f, std ×%.1f (paper: ×8 and ×400)\n",
		h.MeanImprovement(), h.StdImprovement())
}

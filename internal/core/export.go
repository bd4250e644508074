package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// exportedDistribution is the JSON shape of a Distribution: self-describing
// and stable, for plotting pipelines.
type exportedDistribution struct {
	Config string            `json:"config"`
	Rungs  []string          `json:"rungs"`
	SSDs   [][]float64       `json:"ssds_ns"`
	Mean   []float64         `json:"mean_ns"`
	Std    []float64         `json:"std_ns"`
	Min    []float64         `json:"min_ns"`
	Max    []float64         `json:"max_ns"`
	Extra  map[string]string `json:"extra,omitempty"`
}

func exportOf(d Distribution) exportedDistribution {
	e := exportedDistribution{Config: d.Config, Rungs: stats.LadderLabels}
	for _, l := range d.Ladders {
		row := make([]float64, stats.NumRungs)
		for r := 0; r < stats.NumRungs; r++ {
			row[r] = l.Rung(r)
		}
		e.SSDs = append(e.SSDs, row)
	}
	for r := 0; r < stats.NumRungs; r++ {
		e.Mean = append(e.Mean, d.Summary.Mean[r])
		e.Std = append(e.Std, d.Summary.Std[r])
		e.Min = append(e.Min, d.Summary.Min[r])
		e.Max = append(e.Max, d.Summary.Max[r])
	}
	return e
}

// writeJSON is the one JSON export path: v as two-space-indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteDistributionJSON emits one Distribution as indented JSON.
func WriteDistributionJSON(w io.Writer, d Distribution) error {
	return writeJSON(w, exportOf(d))
}

// WriteDistributionsJSON emits several Distributions (a Fig 12/14-style
// comparison) as one JSON array.
func WriteDistributionsJSON(w io.Writer, ds []Distribution) error {
	out := make([]exportedDistribution, len(ds))
	for i, d := range ds {
		out[i] = exportOf(d)
	}
	return writeJSON(w, out)
}

// WriteDistributionCSV emits a Distribution as CSV: one row per SSD, one
// column per ladder rung (nanoseconds), matching how the paper's figures
// plot one line per SSD.
func WriteDistributionCSV(w io.Writer, d Distribution) error {
	cw := csv.NewWriter(w)
	header := append([]string{"ssd"}, stats.LadderLabels...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, l := range d.Ladders {
		row := []string{strconv.Itoa(i)}
		for r := 0; r < stats.NumRungs; r++ {
			row = append(row, strconv.FormatFloat(l.Rung(r), 'f', 0, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig10CSV emits the scatter samples as CSV rows of
// (ssd, completion_ns, latency_ns) — the raw material of the paper's
// Fig 10 plot.
func WriteFig10CSV(w io.Writer, r Fig10Result) error {
	return writeSamplesCSV(w, r.Logs)
}

func writeSamplesCSV(w io.Writer, logs [][]stats.Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ssd", "at_ns", "latency_ns"}); err != nil {
		return err
	}
	for ssd, log := range logs {
		for _, s := range log {
			row := []string{
				strconv.Itoa(ssd),
				strconv.FormatInt(s.At, 10),
				strconv.FormatInt(s.Latency, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// MarshalJSON exports an arm as its distribution's JSON shape plus the
// failure trace.
func (a Arm) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		exportedDistribution
		Trace string `json:"trace,omitempty"`
	}{exportOf(a.Distribution), a.Trace})
}

// WriteReportJSON emits a report as indented JSON. A report that is
// nothing but distributions — the single-configuration figures, the
// comparisons, a figure's seed sweep — keeps the distribution export
// shape (one WriteDistributionJSON object, or a WriteDistributionsJSON
// array when there are several), which plotting pipelines and
// ReadDistributionJSON consume; every other report is encoded whole.
func WriteReportJSON(w io.Writer, r Report) error {
	if ds := r.onlyDistributions(); len(ds) == 1 {
		return WriteDistributionJSON(w, ds[0])
	} else if len(ds) > 1 {
		return WriteDistributionsJSON(w, ds)
	}
	return writeJSON(w, r)
}

// onlyDistributions returns the report's distributions if its sections
// hold nothing else, and nil otherwise.
func (r Report) onlyDistributions() []Distribution {
	var ds []Distribution
	for _, s := range r.Sections {
		if s.Heading != "" || s.View == ViewNone || s.Counters != nil || len(s.Notes) > 0 {
			return nil
		}
		ds = append(ds, s.distributions()...)
	}
	return ds
}

// WriteReportCSV emits a report as CSV: its raw samples if it has them
// (Fig 10), otherwise every arm's per-SSD ladders (WriteDistributionCSV),
// arm after arm. A report with neither has no CSV form.
func WriteReportCSV(w io.Writer, r Report) error {
	if r.Samples != nil {
		return writeSamplesCSV(w, r.Samples)
	}
	n := 0
	for _, s := range r.Sections {
		for _, a := range s.Arms {
			if err := WriteDistributionCSV(w, a.Distribution); err != nil {
				return err
			}
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("core: %s has no CSV form (no distributions or samples)", r.Name)
	}
	return nil
}

// ParallelBenchRow is one serial-vs-parallel wall-clock measurement of
// an experiment fan-out (bench_test.go's BenchmarkParallelSpeedup);
// BENCH_parallel.json holds a list of them.
type ParallelBenchRow struct {
	// Experiment names the fan-out being timed, e.g. "fig12+fig13".
	Experiment string `json:"experiment"`
	// Parallel is the worker-pool width of the parallel arm
	// (runner.DefaultParallel when the flag was 0).
	Parallel int `json:"parallel"`
	// SerialMs/ParallelMs are wall-clock, not simulated, times.
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	// Speedup is SerialMs / ParallelMs.
	Speedup float64 `json:"speedup_x"`
}

// WriteParallelBenchJSON emits the speedup summary as indented JSON,
// through the same export path the distribution reports use.
func WriteParallelBenchJSON(w io.Writer, rows []ParallelBenchRow) error {
	return writeJSON(w, rows)
}

// EngineBenchRow is one engine-throughput measurement: how many
// discrete events per wall-clock second the simulator's inner loop
// sustains on a given configuration (bench_test.go's
// BenchmarkEngineThroughput); BENCH_engine.json holds a list of them.
// Events/sec multiplies every figure and sweep the repository runs, so
// its trajectory is archived per commit like the other BENCH files.
type EngineBenchRow struct {
	// Experiment names the driven workload, e.g. "headline-64ssd".
	Experiment string `json:"experiment"`
	NumSSDs    int    `json:"num_ssds"`
	// Events is the number of engine steps the run fired.
	Events int64 `json:"events"`
	// IOs is the number of I/Os completed across all jobs.
	IOs int64 `json:"ios"`
	// WallMs is host wall-clock time for the run, not simulated time.
	WallMs float64 `json:"wall_ms"`
	// EventsPerSec is Events / (WallMs/1000).
	EventsPerSec float64 `json:"events_per_sec"`
	// IOsPerSec is IOs / (WallMs/1000): simulated work per wall second,
	// set by BenchmarkEngineThroughput. Unlike EventsPerSec it rises
	// when a change does the same I/Os with fewer events.
	IOsPerSec float64 `json:"ios_per_sec,omitempty"`
	// Arrivals / ArrivalsPerSec are set by the open-loop multiplexer
	// benchmarks (BenchmarkTenantMux): offered arrivals processed and
	// the wall-clock rate they were processed at. Zero (omitted) for
	// closed-loop rows.
	Arrivals       int64   `json:"arrivals,omitempty"`
	ArrivalsPerSec float64 `json:"arrivals_per_sec,omitempty"`
	// MeanLatNs is the mean simulated completion latency of the row's
	// workload in nanoseconds — set by the I/O-path rows
	// (BenchmarkIOPathLatency), where the figure under guard is the
	// latency itself rather than a wall-clock rate. Zero (omitted) for
	// throughput rows.
	MeanLatNs float64 `json:"mean_lat_ns,omitempty"`
}

// WriteEngineBenchJSON emits the engine-throughput summary as indented
// JSON, through the same export path the other BENCH files use.
func WriteEngineBenchJSON(w io.Writer, rows []EngineBenchRow) error {
	return writeJSON(w, rows)
}

// ReadDistributionJSON parses what WriteDistributionJSON wrote — round-trip
// support for external tooling and tests.
func ReadDistributionJSON(rd io.Reader) (Distribution, error) {
	var e exportedDistribution
	if err := json.NewDecoder(rd).Decode(&e); err != nil {
		return Distribution{}, err
	}
	if len(e.Mean) != stats.NumRungs {
		return Distribution{}, fmt.Errorf("core: %d rungs in JSON, want %d", len(e.Mean), stats.NumRungs)
	}
	d := Distribution{Config: e.Config}
	for _, row := range e.SSDs {
		if len(row) != stats.NumRungs {
			return Distribution{}, fmt.Errorf("core: ssd row has %d rungs", len(row))
		}
		var l stats.Ladder
		l.Avg = row[0]
		for i := 0; i < 5; i++ {
			l.P[i] = int64(row[i+1])
		}
		l.Max = int64(row[6])
		d.Ladders = append(d.Ladders, l)
	}
	d.Summary = stats.Summarize(d.Ladders)
	return d, nil
}

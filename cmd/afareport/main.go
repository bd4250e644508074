// Command afareport regenerates the paper's figures and tables, and the
// ablations built on them, as text reports from the simulated
// all-flash-array testbed. Every experiment is one entry of the
// core.Experiments registry.
//
// Usage:
//
//	afareport -fig 6          # latency distributions, default config (Fig 6)
//	afareport -fig 7          # + FIO at SCHED_FIFO 99 (chrt)
//	afareport -fig 8          # + CPU isolation boot options
//	afareport -fig 9          # + IRQ affinity pinned
//	afareport -fig 10         # SMART spike scatter summary
//	afareport -fig 11         # experimental firmware (SMART disabled)
//	afareport -fig 12         # four-config comparison
//	afareport -fig 13         # CPU:SSD balance study (-fig 14 is the same report)
//	afareport -table 1        # Table I (device spec)
//	afareport -table 2        # Table II (setup matrix)
//	afareport -headline       # the abstract's ×8 / ×400 claim
//	afareport -ablate fw      # firmware variants (standard/nosmart/incremental)
//	afareport -ablate poll    # interrupt vs polling completion
//	afareport -ablate used    # FOB vs used (non-FOB) state, the future-work study
//	afareport -ablate future  # §VI prototypes: auto-isolating scheduler, affine balancer
//	afareport -ablate coalesce  # NVMe interrupt coalescing vs the interrupt storm
//	afareport -ablate tail    # striped-client tail amplification, widths 1/4/16/32 capped at -ssds
//	afareport -ablate pts     # SNIA PTS-E latency test: purge → rounds → steady state
//	afareport -ablate faults  # clean vs faulted vs faulted+tolerant (timeouts, degraded reads, hedging)
//	afareport -ablate recovery  # drive drop-out/recovery time series under tolerance
//	afareport -ablate writes  # RMW write path: clean / degraded / +rebuild / +tolerance (hedged parity writes)
//	afareport -ablate hedging # hedging policy: static quantile vs per-drive adaptive vs adaptive+budgets
//	afareport -ablate load    # open-loop offered-load ladder: the load-vs-tail knee, with/without QoS admission
//	afareport -ablate iopath  # low-latency I/O path: {irq, coalesced, polling, passthrough} × {flash, ull}
//	afareport -all            # everything, in the order above
//
// -fig takes a comma-separated list; -ablation is accepted as an alias
// for -ablate.
//
// -runtime scales fidelity: the default 2 s is quick; pass 120s for the
// paper's full-length runs (no time compression of rare events).
//
// -parallel N fans the independent runs inside one experiment (configs,
// Table II geometries, sweep seeds) across N workers; the default 0
// means one worker per CPU. Reports are byte-identical at every width —
// each run owns its engine and rng streams and results merge in
// submission order (see DESIGN.md §7) — so -parallel only changes wall
// time, never data.
//
// -seeds N reruns an experiment's single-distribution ladder (figures
// 6-9 and 11; the writes, hedging, load and iopath ablations) at N
// derived seeds (seed, seed+1, …) in parallel and shows a pooled row
// merging all N fleets; sweep member i reproduces standalone with
// -seed <seed+i>.
//
// -format json emits each report as JSON (a report that is only
// distributions keeps the distribution export shape) and -format csv
// its per-SSD ladders, or Fig 10's raw samples (the tables, the
// headline and the recovery series have no CSV form: exit status 1);
// the wall-clock banner then goes to stderr. Bad flag values exit with
// status 2 and one line on stderr before anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// flagOf is how afareport selects a registry entry: "-fig 6",
// "-table 1", "-headline" or "-ablate fw".
func flagOf(e core.Experiment) string {
	if e.Ablation() {
		return "-ablate " + e.Name
	}
	kind := strings.TrimRight(e.Name, "0123456789")
	return strings.TrimSpace("-" + kind + " " + e.Name[len(kind):])
}

// ablationNames lists the registry's ablations, for the -ablate help.
func ablationNames() []string {
	var names []string
	for _, e := range core.Experiments() {
		if e.Ablation() {
			names = append(names, e.Name)
		}
	}
	return names
}

// run is the whole command: it parses args, checks every input against
// the selected registry entries, then runs them in order. It returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afareport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "figure numbers to regenerate, comma-separated (6-14)")
		table    = fs.Int("table", 0, "table number to regenerate (1 or 2)")
		headline = fs.Bool("headline", false, "check the abstract's ×8/×400 claim")
		ablate   = fs.String("ablate", "", "ablation: "+strings.Join(ablationNames(), " | "))
		ablation = fs.String("ablation", "", "alias for -ablate")
		all      = fs.Bool("all", false, "regenerate everything")
		runtime  = fs.Duration("runtime", 2*time.Second, "simulated runtime per FIO instance (paper: 120s)")
		seed     = fs.Uint64("seed", 2018, "experiment seed")
		ssds     = fs.Int("ssds", 64, "number of SSDs")
		solo     = fs.Int("solo-runs", 8, "runs merged for the Fig 13(d) single-thread row (paper: 64)")
		format   = fs.String("format", "text", "output format: text | json | csv")
		parallel = fs.Int("parallel", 0, "worker pool width for independent runs; 0 = one per CPU (results are byte-identical at any width)")
		seeds    = fs.Int("seeds", 1, "seed-sweep width for experiments with a ladder (seed, seed+1, ...; appends a pooled row)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "afareport: "+format+"\n", a...)
		return 2
	}
	if *ablate == "" {
		*ablate = *ablation
	}

	var exps []core.Experiment
	pick := func(flag string) bool {
		for _, e := range core.Experiments() {
			if flagOf(e) == flag {
				exps = append(exps, e)
				return true
			}
		}
		return false
	}
	if *all {
		exps = core.Experiments()
	} else {
		if *fig != "" {
			for _, part := range strings.Split(*fig, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if n == 14 {
					n = 13 // Fig 14 summarizes the Fig 13 runs
				}
				if err != nil || !pick(fmt.Sprintf("-fig %d", n)) {
					return fail("unknown figure %q (have 6-14)", part)
				}
			}
		}
		if *table != 0 && !pick(fmt.Sprintf("-table %d", *table)) {
			return fail("unknown table %d (have 1 and 2)", *table)
		}
		if *headline {
			pick("-headline")
		}
		if *ablate != "" && !pick("-ablate "+*ablate) {
			return fail("unknown ablation %q (have %s)", *ablate, strings.Join(ablationNames(), ", "))
		}
	}
	if len(exps) == 0 {
		fs.Usage()
		return 2
	}

	switch {
	case *ssds < 1:
		return fail("-ssds must be >= 1, got %d", *ssds)
	case *runtime <= 0:
		return fail("-runtime must be positive, got %v", *runtime)
	case *seeds < 1:
		return fail("-seeds must be >= 1, got %d", *seeds)
	case *format != "text" && *format != "json" && *format != "csv":
		return fail("-format must be text, json or csv, got %q", *format)
	}
	for _, e := range exps {
		if *ssds < e.MinSSDs {
			return fail("%s needs -ssds >= %d, got %d", e.Name, e.MinSSDs, *ssds)
		}
	}

	o := core.ExpOptions{
		Runtime:  sim.Duration(runtime.Nanoseconds()),
		Seed:     *seed,
		NumSSDs:  *ssds,
		SoloRuns: *solo,
		Parallel: *parallel,
	}
	width := *parallel
	if width <= 0 {
		width = runner.DefaultParallel()
	}
	banner := stdout
	if *format != "text" {
		banner = stderr // stdout carries only the machine-readable export
	}
	for _, e := range exps {
		t0 := time.Now() //afalint:allow wallclock -- wall-clock cost banner, not simulated time
		r := e.Report(o, *seeds)
		var err error
		switch *format {
		case "json":
			err = core.WriteReportJSON(stdout, r)
		case "csv":
			err = core.WriteReportCSV(stdout, r)
		default:
			core.WriteReport(stdout, r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "afareport: %v\n", err)
			return 1
		}
		// Wall time is the one number -parallel is allowed to change;
		// everything above this line is seed-determined.
		fmt.Fprintf(banner, "[%v wall, parallel=%d]\n", time.Since(t0).Round(time.Millisecond), width) //afalint:allow wallclock -- wall-clock cost banner
	}
	return 0
}

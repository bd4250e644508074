package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// Experiment is one entry of the registry: a figure, a table, the
// headline, or an ablation. Adding an experiment means adding one entry
// to Experiments; afareport, the golden and parallel-determinism tests,
// and the smoke run in scripts/check.sh all iterate the registry.
type Experiment struct {
	// Name is the registry key: "fig6".."fig13", "table1", "table2",
	// "headline", or the ablation's name ("fw", "faults", …).
	Name string
	// Title is the report's banner.
	Title string
	// MinSSDs is the smallest fleet Run accepts (0: any).
	MinSSDs int
	// Run measures the experiment and builds its report.
	Run func(ExpOptions) Report
	// Ladder, when set, is the experiment's single-distribution form,
	// which a seed sweep reruns at derived seeds and pools.
	Ladder func(ExpOptions) Distribution
	// Sweep is the heading of the section a seed sweep appends to an
	// ablation's report, naming its Ladder.
	Sweep string
}

// Ablation reports whether the entry is an ablation (an extension
// beyond the paper's figures, tables and headline).
func (e Experiment) Ablation() bool {
	return !strings.HasPrefix(e.Name, "fig") && !strings.HasPrefix(e.Name, "table") && e.Name != "headline"
}

// Report runs the experiment. With seeds > 1 and a Ladder, the ladder
// is rerun at seeds derived seeds (RunSeedSweep) and shown side by side
// with a "pooled" merge of all of them: in place of a figure's report,
// which is its ladder, and after an ablation's.
func (e Experiment) Report(o ExpOptions, seeds int) Report {
	swept := seeds > 1 && e.Ladder != nil
	var r Report
	if !swept || e.Ablation() {
		r = e.Run(o)
	}
	if swept {
		sweep := RunSeedSweep(o, seeds, e.Ladder)
		s := Section{View: ViewCompare, Arms: armsOf(append(sweep, MergeSweep("pooled", sweep)))}
		if e.Ablation() {
			s.Heading = fmt.Sprintf("%s, %d-seed sweep (pooled last):", e.Sweep, seeds)
		}
		r.Sections = append(r.Sections, s)
	}
	r.Name, r.Title = e.Name, e.Title
	return r
}

// Lookup finds a registry entry by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Experiments returns the registry in report order: the figures, the
// tables, the headline, then the ablations.
func Experiments() []Experiment {
	return []Experiment{
		figure("fig6", "Fig 6: latency distributions, default configuration", RunFig6),
		figure("fig7", "Fig 7: + FIO at SCHED_FIFO 99 (chrt)", RunFig7),
		figure("fig8", "Fig 8: + CPU isolation boot options", RunFig8),
		figure("fig9", "Fig 9: + IRQ affinity pinned (identical setup to Fig 13(a))", RunFig9),
		{Name: "fig10", Title: "Fig 10: latency scatter, 32 SSDs, periodic SMART spikes", Run: typed(RunFig10, fig10Report)},
		figure("fig11", "Fig 11: experimental firmware (SMART disabled)", RunFig11),
		{Name: "fig12", Title: "Fig 12: comparison of four system configurations",
			Run: func(o ExpOptions) Report { return compareReport(RunFig12(o)) }},
		{Name: "fig13", Title: "Fig 13/14: latency vs number of SSDs per physical CPU core", Run: typed(RunFig13, fig13Report)},
		{Name: "table1", Title: "Table I: NVMe SSD specification", Run: table1Report},
		{Name: "table2", Title: "Table II: varying number of SSDs / CPU core",
			Run: func(ExpOptions) Report { return notesReport(linesOf(WriteTableII)) }},
		{Name: "headline", Title: "Headline: mean/σ of max latency, default vs tuned kernel",
			Run: typed(RunHeadline, func(h Headline) Report {
				return notesReport(linesOf(func(w io.Writer) { WriteHeadline(w, h) }))
			})},
		{Name: "fw", Title: "Ablation: firmware housekeeping variants (tuned kernel)",
			Run: func(o ExpOptions) Report { return compareReport(RunFirmwareAblation(o)) }},
		{Name: "poll", Title: "Ablation: interrupt vs polling completion (tuned kernel)",
			Run: func(o ExpOptions) Report {
				intr, poll := RunPollingAblation(o)
				return compareReport([]Distribution{intr, poll})
			}},
		{Name: "used", Title: "Extension: FOB vs used (non-FOB) state, random writes",
			Run: func(o ExpOptions) Report {
				fob, used := RunUsedStateStudy(o, 0.9)
				return compareReport([]Distribution{fob, used})
			}},
		{Name: "future", Title: "Section VI prototypes: how much manual tuning do better algorithms recover?",
			Run: func(o ExpOptions) Report { return compareReport(RunFutureWorkAblation(o)) }},
		{Name: "coalesce", Title: "Extension: NVMe interrupt coalescing (QD8)", Run: coalesceReport},
		{Name: "tail", Title: "Section I motivation: striped-client tail amplification vs stripe width", Run: tailReport},
		{Name: "pts", Title: "SNIA PTS-E latency test: purge → rounds → steady state", Run: ptsReport},
		{Name: "faults", Title: "Extension: degraded mode — clean vs faulted vs faulted+tolerant stripe",
			MinSSDs: FaultStripeWidth + 1,
			Run:     typed(RunFaultAblation, faultReport)},
		{Name: "recovery", Title: "Extension: drive drop-out and recovery under the tolerance stack",
			MinSSDs: FaultStripeWidth + 1,
			Run:     typed(RunRecoverySeries, recoveryReport)},
		{Name: "writes", Title: "Extension: RMW write path — clean / degraded / +rebuild / +tolerance",
			MinSSDs: FaultStripeWidth + 1,
			Run:     typed(RunWriteAblation, writeReport),
			Ladder:  RunWriteLadder, Sweep: "tolerant-arm write ladder"},
		{Name: "hedging", Title: "Extension: hedging policy — static quantile vs per-drive adaptive vs adaptive+budgets",
			MinSSDs: FaultStripeWidth + 1,
			Run:     typed(RunHedgingAblation, hedgeReport),
			Ladder:  RunHedgeLadder, Sweep: "adaptive+budgets read ladder"},
		{Name: "load", Title: "Extension: open-loop offered-load ladder — the load-vs-tail knee, with/without QoS admission",
			Run:    typed(RunLoadAblation, loadReport),
			Ladder: RunLoadLadder, Sweep: "admission-arm per-class ladders at 110% load"},
		{Name: "iopath", Title: "Extension: low-latency I/O path — {irq, coalesced, polling, passthrough} × {flash, ull}",
			MinSSDs: iopathFaultSSD + 1,
			Run:     typed(RunIOPathAblation, iopathReport),
			Ladder:  RunIOPathLadder, Sweep: "ull passthrough per-SSD ladders"},
	}
}

// figure is a single-configuration figure entry: its report is the
// fleet table of one distribution, and the distribution is its ladder.
func figure(name, title string, run func(ExpOptions) Distribution) Experiment {
	return Experiment{Name: name, Title: title, Ladder: run, Run: func(o ExpOptions) Report {
		return Report{Sections: []Section{{View: ViewFleet, Arms: armsOf([]Distribution{run(o)})}}}
	}}
}

// typed is the Run of an experiment with a typed result: it measures
// with run, builds the report from the result, and keeps the result on
// it.
func typed[T any](run func(ExpOptions) T, report func(T) Report) func(ExpOptions) Report {
	return func(o ExpOptions) Report {
		res := run(o)
		r := report(res)
		r.Result = res
		return r
	}
}

func compareReport(ds []Distribution) Report {
	return Report{Sections: []Section{{View: ViewCompare, Arms: armsOf(ds)}}}
}

func notesReport(notes []string) Report {
	return Report{Sections: []Section{{Notes: notes}}}
}

func fig10Report(r Fig10Result) Report {
	rep := notesReport(linesOf(func(w io.Writer) { WriteFig10Summary(w, r) }))
	rep.Samples = r.Logs
	return rep
}

func fig13Report(rs []Fig13Result) Report {
	var ds []Distribution
	for _, r := range rs {
		ds = append(ds, r.Dist)
	}
	return compareReport(ds)
}

func table1Report(ExpOptions) Report {
	s := nvme.SpecTableI()
	return notesReport([]string{
		fmt.Sprintf("%-30s %s", "Host Interface", s.HostInterface),
		fmt.Sprintf("%-30s %d", "Capacity (GB)", s.CapacityGB),
		fmt.Sprintf("%-30s %d / %d", "Random Read/Write (IOPS)", s.RandReadIOPS, s.RandWriteIOPS),
		fmt.Sprintf("%-30s %d / %d", "Sequential Read/Write (MB/s)", s.SeqReadMBps, s.SeqWriteMBps),
		fmt.Sprintf("%-30s %s", "NAND Type", s.NANDType),
	})
}

func coalesceReport(o ExpOptions) Report {
	off, on := RunCoalescingAblation(o)
	r := compareReport([]Distribution{off.Dist, on.Dist})
	r.Sections[0].Notes = []string{fmt.Sprintf("interrupts/IO: %.2f → %.2f",
		float64(off.Interrupts)/float64(off.IOs), float64(on.Interrupts)/float64(on.IOs))}
	r.Result = []CoalescingResult{off, on}
	return r
}

// tailWidths are the striped-client widths of the tail ablation, capped
// at the fleet size.
var tailWidths = []int{1, 4, 16, 32}

func tailReport(o ExpOptions) Report {
	o = o.withDefaults()
	var widths []int
	for _, w := range tailWidths {
		if w <= o.NumSSDs {
			widths = append(widths, w)
		}
	}
	var r Report
	var all []TailAtScaleResult
	for _, cfg := range []Config{Default(), ExpFirmware()} {
		s := Section{Heading: fmt.Sprintf("-- %s --", cfg.Name)}
		ts := RunTailAtScale(cfg, widths, o)
		all = append(all, ts...)
		for i, t := range ts {
			if i == 0 {
				s.Arms = append(s.Arms, ladderArm(cfg.Name+"/per-ssd", t.PerSSD))
			}
			s.Arms = append(s.Arms, ladderArm(fmt.Sprintf("%s/w%d", cfg.Name, t.Width), t.Client))
			s.Notes = append(s.Notes, fmt.Sprintf("width %2d: avg %8.1fµs  p99 %8.1fµs  max %8.1fµs  (p99 ×%.2f a single SSD)",
				t.Width, t.Client.Avg/1e3, float64(t.Client.P[0])/1e3, float64(t.Client.Max)/1e3, t.Amplification))
		}
		r.Sections = append(r.Sections, s)
	}
	r.Result = all
	return r
}

func ptsReport(o ExpOptions) Report {
	rep := RunPTSLatencyTest(ExpFirmware(), o, 200*sim.Millisecond, 25)
	var s Section
	for i, round := range rep.Rounds {
		s.Arms = append(s.Arms, ladderArm(fmt.Sprintf("round-%d", i+1), round.Ladder))
		s.Notes = append(s.Notes, fmt.Sprintf("round %2d: fleet avg %.2fµs", i+1, round.AvgLatencyNs/1e3))
	}
	if rep.Result.Steady {
		s.Notes = append(s.Notes, fmt.Sprintf("steady state at round %d (excursion %.1f%%, slope %.1f%%)",
			rep.Result.SteadyAt, rep.Result.Excursion*100, rep.Result.Slope*100))
	} else {
		s.Notes = append(s.Notes, "steady state NOT reached")
	}
	return Report{Sections: []Section{s}, Result: rep}
}

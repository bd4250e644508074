// Hedging-policy experiments: the three-arm adaptive-tolerance ablation
// (static hedge quantile vs per-drive adaptive deadlines vs adaptive +
// retry budgets/overload shedding) over a fleet that mixes the failure
// modes the health tracker is built to tell apart — a slow-binned
// member, a mid-run drop-out with rebuild, and GC storms on an otherwise
// healthy device. The question the ablation answers: does learning each
// drive's own latency profile beat one stripe-wide hedge delay, and does
// the back-pressure half (budgets + watermark) hold the win under retry
// pressure.

package core

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/raid"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DemoHedgePlan builds the hedging-ablation fault schedule on the
// FaultStripeWidth data stripe. The three profiles are chosen so that a
// single stripe-wide hedge delay cannot be right for all of them at
// once:
//
//   - member 0 drops out a quarter of the way in and is replaced at the
//     midpoint (the rebuild target): the right hedge delay during the
//     outage is "as soon as possible";
//   - member 3 is a slow bin (×20): its baseline is the drive's normal —
//     hedging it at the healthy members' tail burns a parity read on
//     nearly every request;
//   - member 5 suffers periodic GC storms (×30): a healthy baseline that
//     transiently needs the fast hedge the slow bin must not get;
//   - the parity member itself storms (×8) once inside the outage and
//     once after it: the hedge path is not free, so every speculative
//     parity read a policy fires while parity is storming deepens the
//     convoy behind it.
//
// A static client learns one quantile dominated by the slow bin and
// applies it everywhere — too slow for the outage and the storms, while
// still hedging the slow bin's own ordinary tail. The per-drive tracker
// separates the cases.
func DemoHedgePlan(horizon sim.Duration) fault.Plan {
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: sim.Time(0).Add(horizon / 4), RecoverAt: sim.Time(0).Add(horizon / 2)},
		{SSD: 3, ReadSlowdown: 20},
		{SSD: 5, GCStorms: []fault.Window{
			{At: sim.Time(0).Add(5 * horizon / 8), For: horizon / 16},
			{At: sim.Time(0).Add(13 * horizon / 16), For: horizon / 16},
		}, StormFactor: 30},
		{SSD: FaultStripeWidth, GCStorms: []fault.Window{
			{At: sim.Time(0).Add(5 * horizon / 16), For: horizon / 16},
			{At: sim.Time(0).Add(11 * horizon / 16), For: horizon / 16},
		}, StormFactor: 8},
	}}
}

// HedgeRun is one arm of the hedging-policy ablation.
type HedgeRun struct {
	Name   string
	Ladder stats.Ladder
	// Client-level counters (see raid.Result).
	Requests         int64
	Failed           int64
	SubIOErrors      int64
	DegradedReads    int64
	HedgedReads      int64
	HedgeWins        int64
	HedgesSuppressed int64
	LateSubIOs       int64
	// IOStats is the kernel tolerance machinery's activity; the budgets
	// arm additionally populates RetryBudgetExhausted/ShedToReconstruct/
	// OverloadEntered.
	IOStats kernel.IOStats
	// Drives are end-of-run health-tracker snapshots for the stripe
	// members and parity (nil for the static arm, which runs untracked).
	Drives []health.DriveHealth
	// Trace is the run's failure trace.
	Trace string
}

// hedgeClientSpec is the common foreground striped-read workload of
// every arm: QD-4 full-stripe reads with parity tolerance armed.
func hedgeClientSpec(name string, cfg Config, o ExpOptions, tol *raid.Tolerance) raid.ClientSpec {
	stripe := make([]int, FaultStripeWidth)
	for i := range stripe {
		stripe[i] = i
	}
	return raid.ClientSpec{
		Name: name, Stripe: stripe, Runtime: o.Runtime, QD: 4,
		Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio, Tol: tol, Seed: o.Seed,
	}
}

// runHedgeArm boots one system under DemoHedgePlan, runs the striped
// client with the arm's tolerance, and races the rebuild stream from the
// replacement instant — the same competing-rebuild setting as the write
// ablation, so the arms differ only in hedging policy.
func runHedgeArm(name string, cfg Config, o ExpOptions, tol *raid.Tolerance) HedgeRun {
	plan := DemoHedgePlan(o.Runtime)
	sys := NewSystem(Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
		Geom: o.Geom, FaultPlan: &plan})
	cpus := sys.Host.WorkloadCPUs()
	spec := hedgeClientSpec(name, cfg, o, tol)
	spec.CPU = cpus[0]
	rb := raid.NewRebuilder(sys.Eng, sys.Kernel, writeRebuildSpec(o, cpus[len(cpus)-1]))
	rb.Start(nil)
	res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{spec})[0]
	out := HedgeRun{
		Name:             name,
		Ladder:           res.Ladder,
		Requests:         res.Requests,
		Failed:           res.FailedRequests,
		SubIOErrors:      res.SubIOErrors,
		DegradedReads:    res.DegradedReads,
		HedgedReads:      res.HedgedReads,
		HedgeWins:        res.HedgeWins,
		HedgesSuppressed: res.HedgesSuppressed,
		LateSubIOs:       res.LateSubIOs,
		IOStats:          sys.Kernel.IOStats(),
		Trace:            sys.Faults.TraceString(),
	}
	if h := sys.Kernel.Health(); h != nil {
		for ssd := 0; ssd <= FaultStripeWidth; ssd++ {
			out.Drives = append(out.Drives, h.Snapshot(ssd))
		}
	}
	return out
}

// RunHedgingAblation measures the client-visible striped-read ladder
// under DemoHedgePlan in three arms:
//
//   - static: the stock tolerance stack — one hedge delay from the
//     client-wide p99, which the slow bin drags up for every drive;
//   - adaptive: the same kernel plus the health tracker, with hedge
//     deadlines per straggling drive (raid.Tolerance.Adaptive);
//   - adaptive+budgets: adaptive plus per-drive retry budgets and the
//     overload watermark — the full control plane.
//
// The headline: the adaptive arms cut the upper rungs (the outage and
// the storms are hedged at the floor instead of the slow bin's tail)
// while firing fewer hedges overall (the slow bin is hedged at its own
// baseline, not raced constantly).
func RunHedgingAblation(o ExpOptions) []HedgeRun {
	o = o.withDefaults()
	if o.NumSSDs <= FaultStripeWidth {
		panic(fmt.Sprintf("core: hedging ablation needs > %d SSDs", FaultStripeWidth))
	}

	// Three independent boots fanned out in parallel; each arm builds its
	// own plan and tolerance inside its job (DemoHedgePlan is a pure
	// function of the horizon), so no fault-schedule state crosses
	// workers.
	type hedgeArm struct {
		name     string
		cfg      Config
		adaptive bool
	}
	arms := []hedgeArm{
		{name: "static", cfg: FaultTolerance()},
		{name: "adaptive", cfg: AdaptiveTolerance(), adaptive: true},
		{name: "adaptive+budgets", cfg: AdaptiveBudgets(), adaptive: true},
	}
	return runner.Map(o.runnerOpts(), arms, func(_ int, a hedgeArm) HedgeRun {
		tol := raid.DefaultTolerance(FaultStripeWidth)
		tol.Adaptive = a.adaptive
		return runHedgeArm(a.name, a.cfg, o, tol)
	})
}

// RunHedgeLadder is the sweepable single-distribution form of the full
// control-plane arm: DemoHedgePlan, the rebuild stream, and adaptive
// hedging with budgets at one seed, returning the read ladder for
// RunSeedSweep pooling (n seeds read as one n-client fleet).
func RunHedgeLadder(o ExpOptions) Distribution {
	o = o.withDefaults()
	if o.NumSSDs <= FaultStripeWidth {
		panic(fmt.Sprintf("core: hedge ladder needs > %d SSDs", FaultStripeWidth))
	}
	tol := raid.DefaultTolerance(FaultStripeWidth)
	tol.Adaptive = true
	res := runHedgeArm("hedge-ladder", AdaptiveBudgets(), o, tol)
	ladders := []stats.Ladder{res.Ladder}
	return Distribution{Config: "hedging-adaptive-budgets", Ladders: ladders,
		Summary: stats.Summarize(ladders)}
}

// hedgeReport lays out the three-arm comparison: the client ladders
// side by side, the hedging and kernel counters, then the end-of-run
// health-tracker view of the fleet for the arms that ran one.
func hedgeReport(runs []HedgeRun) Report {
	rep := Report{Sections: armTables(runs, func(r HedgeRun) Arm { return ladderArm(r.Name, r.Ladder).traced(r.Trace) },
		count("requests", func(r HedgeRun) int64 { return r.Requests }),
		count("failed", func(r HedgeRun) int64 { return r.Failed }),
		count("sub-I/O errors", func(r HedgeRun) int64 { return r.SubIOErrors }),
		count("degraded reads", func(r HedgeRun) int64 { return r.DegradedReads }),
		count("hedged reads", func(r HedgeRun) int64 { return r.HedgedReads }),
		count("hedge wins", func(r HedgeRun) int64 { return r.HedgeWins }),
		count("hedges suppressed", func(r HedgeRun) int64 { return r.HedgesSuppressed }),
		count("late sub-I/Os", func(r HedgeRun) int64 { return r.LateSubIOs }),
		count("kern timeouts", func(r HedgeRun) int64 { return r.IOStats.Timeouts }),
		count("kern retries", func(r HedgeRun) int64 { return r.IOStats.Retries }),
		count("kern exhausted", func(r HedgeRun) int64 { return r.IOStats.Exhausted }),
		count("budget exhausted", func(r HedgeRun) int64 { return r.IOStats.RetryBudgetExhausted }),
		count("shed to reconst", func(r HedgeRun) int64 { return r.IOStats.ShedToReconstruct }),
		count("overload entries", func(r HedgeRun) int64 { return r.IOStats.OverloadEntered }))}
	for _, r := range runs {
		if r.Drives == nil {
			continue
		}
		rep.Sections = append(rep.Sections, Section{
			Heading: r.Name + " drive health (end of run):",
			Counters: statCols("ssd", r.Drives, func(d health.DriveHealth) string { return strconv.Itoa(d.SSD) },
				stat[health.DriveHealth]{name: "srtt(µs)", prec: 1, of: func(d health.DriveHealth) float64 { return float64(d.SRTT) / 1e3 }},
				stat[health.DriveHealth]{name: "deadline(µs)", prec: 1, of: func(d health.DriveHealth) float64 { return float64(d.Deadline) / 1e3 }},
				count("susp(‰)", func(d health.DriveHealth) int64 { return d.Suspicion }),
				count("samples", func(d health.DriveHealth) int64 { return d.Samples }),
				count("spikes", func(d health.DriveHealth) int64 { return d.Spikes }),
				count("timeouts", func(d health.DriveHealth) int64 { return d.Timeouts }),
				count("retries", func(d health.DriveHealth) int64 { return d.Retries }),
				count("errors", func(d health.DriveHealth) int64 { return d.Errors })),
		})
	}
	return rep
}

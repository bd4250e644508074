// Fault-injection experiments: the degraded-mode ablation (clean vs
// faulted vs faulted+tolerant) and the drive drop-out recovery series.
// The paper's configurations chase the tail of healthy devices; these
// runners ask the complementary question — what the client-visible ladder
// looks like when devices misbehave, and how much of the damage the
// host-side tolerance machinery (kernel timeouts + RAID degraded reads +
// hedging) buys back.

package core

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/raid"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FaultStripeWidth is the data-stripe width the fault experiments use;
// the parity member is SSD FaultStripeWidth.
const FaultStripeWidth = 8

// DemoFaultPlan builds the representative misbehaving-fleet schedule the
// ablation imposes on the data stripe: one firmware-stalling controller,
// one slow-binned device, one with transient command errors, and one with
// periodic GC storms. Deliberately no drive drop-out: an offline device
// never completes commands, so an untolerant host would simply hang — the
// drop-out story needs tolerance and lives in RunRecoverySeries.
func DemoFaultPlan(horizon sim.Duration) fault.Plan {
	h := sim.Time(0).Add(horizon)
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, FirmwareStalls: fault.PeriodicStalls(
			sim.Time(0).Add(horizon/4), horizon/2, 20*sim.Millisecond, h)},
		{SSD: 1, ReadSlowdown: 3},
		{SSD: 2, TransientRate: 0.002},
		{SSD: 3, GCStorms: []fault.Window{{At: sim.Time(0).Add(horizon / 3), For: horizon / 10}},
			StormFactor: 8},
	}}
}

// FaultRun is one arm of the degraded-mode ablation.
type FaultRun struct {
	Name   string
	Ladder stats.Ladder
	// Client-level counters (see raid.Result).
	Requests      int64
	Failed        int64
	SubIOErrors   int64
	DegradedReads int64
	HedgedReads   int64
	HedgeWins     int64
	// IOStats is the kernel tolerance machinery's activity.
	IOStats kernel.IOStats
	// Trace is the run's failure trace (empty for the clean arm).
	Trace string
}

// RunFaultAblation measures the client-visible striped-read ladder in
// three arms: a clean fleet, the same fleet under DemoFaultPlan with no
// host tolerance (errors fail requests, stalls are waited out), and the
// faulted fleet with the full tolerance stack (kernel timeouts + retry,
// RAID degraded reads, hedged reads at the observed p99). The headline:
// tolerant worst-case latency sits far below the untolerant faulted
// maximum, because the hedge routes around a stalled controller instead
// of waiting for it.
func RunFaultAblation(o ExpOptions) []FaultRun {
	o = o.withDefaults()
	if o.NumSSDs <= FaultStripeWidth {
		panic(fmt.Sprintf("core: fault ablation needs > %d SSDs", FaultStripeWidth))
	}

	run := func(name string, cfg Config, plan *fault.Plan, tol *raid.Tolerance) FaultRun {
		opt := Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
			Geom: o.Geom, FaultPlan: plan}
		sys := NewSystem(opt)
		stripe := make([]int, FaultStripeWidth)
		for i := range stripe {
			stripe[i] = i
		}
		cpu := sys.Host.WorkloadCPUs()[0]
		res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{{
			Name: name, Stripe: stripe, CPU: cpu, Runtime: o.Runtime,
			Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio, Tol: tol, Seed: o.Seed,
		}})[0]
		out := FaultRun{
			Name:          name,
			Ladder:        res.Ladder,
			Requests:      res.Requests,
			Failed:        res.FailedRequests,
			SubIOErrors:   res.SubIOErrors,
			DegradedReads: res.DegradedReads,
			HedgedReads:   res.HedgedReads,
			HedgeWins:     res.HedgeWins,
			IOStats:       sys.Kernel.IOStats(),
		}
		if sys.Faults != nil {
			out.Trace = sys.Faults.TraceString()
		}
		return out
	}

	// The three arms are independent boots and fan out in parallel. Each
	// arm builds its own plan and tolerance inside its job — DemoFaultPlan
	// is a pure function of the horizon — so no fault-schedule state is
	// shared across workers.
	type faultArm struct {
		name     string
		cfg      Config
		faulted  bool
		tolerant bool
	}
	arms := []faultArm{
		{name: "clean", cfg: IRQAffinity()},
		{name: "faulted", cfg: IRQAffinity(), faulted: true},
		{name: "tolerant", cfg: FaultTolerance(), faulted: true, tolerant: true},
	}
	return runner.Map(o.runnerOpts(), arms, func(_ int, a faultArm) FaultRun {
		var plan *fault.Plan
		if a.faulted {
			p := DemoFaultPlan(o.Runtime)
			plan = &p
		}
		var tol *raid.Tolerance
		if a.tolerant {
			tol = raid.DefaultTolerance(FaultStripeWidth)
		}
		return run(a.name, a.cfg, plan, tol)
	})
}

// RecoveryResult is the drop-out/recovery time series: per-window maximum
// striped-request latency across a run in which one stripe member goes
// offline and later returns.
type RecoveryResult struct {
	// Buckets holds the per-window latency summaries.
	Buckets []stats.TimeBucket
	// DropAt/RecoverAt are the imposed outage bounds.
	DropAt, RecoverAt sim.Time
	// Counters for the whole run.
	Requests      int64
	Failed        int64
	DegradedReads int64
	HedgedReads   int64
	HedgeWins     int64
	IOStats       kernel.IOStats
	Trace         string
}

// RunRecoverySeries drops stripe member 0 a quarter of the way into the
// run and recovers it at three quarters, under the full tolerance stack.
// While the drive is gone its sub-I/Os never complete; the hedge fires at
// the observed p99 and the parity reconstruction serves every request, so
// the series shows a bounded latency plateau during the outage rather
// than a hang — and a return to baseline after recovery.
func RunRecoverySeries(o ExpOptions) RecoveryResult {
	o = o.withDefaults()
	if o.NumSSDs <= FaultStripeWidth {
		panic(fmt.Sprintf("core: recovery series needs > %d SSDs", FaultStripeWidth))
	}
	dropAt := sim.Time(0).Add(o.Runtime / 4)
	recoverAt := sim.Time(0).Add(3 * o.Runtime / 4)
	plan := fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: dropAt, RecoverAt: recoverAt},
	}}

	cfg := FaultTolerance()
	sys := NewSystem(Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
		Geom: o.Geom, FaultPlan: &plan})
	stripe := make([]int, FaultStripeWidth)
	for i := range stripe {
		stripe[i] = i
	}
	cpu := sys.Host.WorkloadCPUs()[0]
	res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{{
		Name: "recovery", Stripe: stripe, CPU: cpu, Runtime: o.Runtime,
		Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio,
		Tol:    raid.DefaultTolerance(FaultStripeWidth),
		LatLog: true, Seed: o.Seed,
	}})[0]

	horizon := int64(sys.Eng.Now())
	return RecoveryResult{
		Buckets:       stats.Bucketize(res.Log.Samples(), horizon, 48, 500_000),
		DropAt:        dropAt,
		RecoverAt:     recoverAt,
		Requests:      res.Requests,
		Failed:        res.FailedRequests,
		DegradedReads: res.DegradedReads,
		HedgedReads:   res.HedgedReads,
		HedgeWins:     res.HedgeWins,
		IOStats:       sys.Kernel.IOStats(),
		Trace:         sys.Faults.TraceString(),
	}
}

// faultReport lays out the three-arm comparison: the client ladders
// side by side, then the tolerance counters.
func faultReport(runs []FaultRun) Report {
	return Report{Sections: armTables(runs, func(r FaultRun) Arm { return ladderArm(r.Name, r.Ladder).traced(r.Trace) },
		count("requests", func(r FaultRun) int64 { return r.Requests }),
		count("failed", func(r FaultRun) int64 { return r.Failed }),
		count("sub-I/O errors", func(r FaultRun) int64 { return r.SubIOErrors }),
		count("degraded reads", func(r FaultRun) int64 { return r.DegradedReads }),
		count("hedged reads", func(r FaultRun) int64 { return r.HedgedReads }),
		count("hedge wins", func(r FaultRun) int64 { return r.HedgeWins }),
		count("kern timeouts", func(r FaultRun) int64 { return r.IOStats.Timeouts }),
		count("kern retries", func(r FaultRun) int64 { return r.IOStats.Retries }),
		count("kern exhausted", func(r FaultRun) int64 { return r.IOStats.Exhausted }))}
}

// recoveryReport lays out the outage time series: max latency per
// window with the imposed drop/recover instants marked, then the
// failure trace.
func recoveryReport(r RecoveryResult) Report {
	head := Section{Notes: []string{
		fmt.Sprintf("drive drop at t=%.3fs, recovery at t=%.3fs", float64(r.DropAt)/1e9, float64(r.RecoverAt)/1e9),
		fmt.Sprintf("requests=%d failed=%d degraded=%d hedged=%d hedge-wins=%d",
			r.Requests, r.Failed, r.DegradedReads, r.HedgedReads, r.HedgeWins),
		fmt.Sprintf("kernel: timeouts=%d retries=%d exhausted=%d late=%d",
			r.IOStats.Timeouts, r.IOStats.Retries, r.IOStats.Exhausted, r.IOStats.LateCompletions),
	}}
	width := int64(1 << 62)
	if len(r.Buckets) >= 2 {
		width = r.Buckets[1].Start - r.Buckets[0].Start
	}
	series := statCols("window", r.Buckets,
		func(b stats.TimeBucket) string { return fmt.Sprintf("%.3fs", float64(b.Start)/1e9) },
		count("reqs", func(b stats.TimeBucket) int64 { return b.Count }),
		stat[stats.TimeBucket]{name: "mean(µs)", prec: 1, of: func(b stats.TimeBucket) float64 { return b.Mean() / 1e3 }},
		stat[stats.TimeBucket]{name: "max(µs)", prec: 1, of: func(b stats.TimeBucket) float64 { return float64(b.Max) / 1e3 }})
	for i, b := range r.Buckets {
		if end := b.Start + width; int64(r.DropAt) >= b.Start && int64(r.DropAt) < end {
			series.Rows[i].Mark = "<- drop"
		} else if int64(r.RecoverAt) >= b.Start && int64(r.RecoverAt) < end {
			series.Rows[i].Mark = "<- recover"
		}
	}
	trace := Section{Counters: series, Notes: append([]string{"", "failure trace:"},
		strings.Split(strings.TrimRight(r.Trace, "\n"), "\n")...)}
	return Report{Sections: []Section{head, trace}}
}

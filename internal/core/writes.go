// Write-path fault experiments: the four-arm degraded-write ablation
// (clean RMW, degraded, degraded + rebuild, degraded + rebuild +
// tolerance) and the pooled write-tail ladder for seed sweeps. The
// paper's tail events (SMART windows, GC storms) hit writes hardest;
// these runners measure what the RAID small-write penalty and a member
// outage do to the client-visible write ladder, and how much the
// write-side tolerance stack (kernel timeouts + suspicion routing +
// hedged parity writes) buys back while a rebuild stream competes for
// the same devices.

package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/raid"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// writeRebuildThrottle is the ablation's rebuild-rate knob: the pause
// between consecutive rebuilt stripes. raid.RebuildSpec.Throttle exposes
// it to library users; examples/chaos shows the trade-off.
const writeRebuildThrottle = 100 * sim.Microsecond

// DemoWritePlan builds the write-ablation fault schedule on the
// FaultStripeWidth data stripe: member 0 is pulled a quarter of the way
// in and replaced at the midpoint (the rebuild target), member 1's
// firmware stalls during the rebuild phase, member 2 throws transient
// command errors, and member 3 programs slowly. The stall window sits
// after the outage on purpose: while member 0 is gone, every
// parity-logged write needs all surviving peers, and overlapping a peer
// stall with the outage would make even a perfectly-tolerant host wait
// out the kernel timeout ladder.
func DemoWritePlan(horizon sim.Duration) fault.Plan {
	h := sim.Time(0).Add(horizon)
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: sim.Time(0).Add(horizon / 4), RecoverAt: sim.Time(0).Add(horizon / 2)},
		{SSD: 1, FirmwareStalls: fault.PeriodicStalls(
			sim.Time(0).Add(5*horizon/8), horizon/2, 20*sim.Millisecond, h)},
		{SSD: 2, TransientRate: 0.002},
		{SSD: 3, WriteSlowdown: 4},
	}}
}

// WriteRun is one arm of the degraded-write ablation.
type WriteRun struct {
	Name   string
	Ladder stats.Ladder
	// Client-level counters (see raid.Result).
	Requests          int64
	Failed            int64
	SubIOErrors       int64
	RMWReads          int64
	DataWrites        int64
	ParityWrites      int64
	DegradedWrites    int64
	ReconstructWrites int64
	ParityLogWrites   int64
	UnprotectedWrites int64
	HedgedWrites      int64
	WriteHedgeWins    int64
	DupCompletions    int64
	Suspicions        int64
	Probes            int64
	// IOStats is the kernel tolerance machinery's activity.
	IOStats kernel.IOStats
	// Rebuild is the rebuild stream's snapshot (nil for arms without one).
	Rebuild *raid.RebuildResult
	// Trace is the run's failure trace (empty for the clean arm).
	Trace string
}

// writeClientSpec is the common foreground write workload of every arm.
func writeClientSpec(name string, cfg Config, o ExpOptions, tol *raid.Tolerance) raid.ClientSpec {
	stripe := make([]int, FaultStripeWidth)
	for i := range stripe {
		stripe[i] = i
	}
	return raid.ClientSpec{
		Name: name, Workload: raid.WorkloadWrite, Stripe: stripe,
		Parity: FaultStripeWidth, Runtime: o.Runtime,
		Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio, Tol: tol, Seed: o.Seed,
	}
}

// writeRebuildSpec reconstructs member 0 from its recovery instant, one
// stripe per writeRebuildThrottle plus service time, sized to keep the
// stream busy for the rest of the run.
func writeRebuildSpec(o ExpOptions, cpu int) raid.RebuildSpec {
	survivors := make([]int, 0, FaultStripeWidth-1)
	for i := 1; i < FaultStripeWidth; i++ {
		survivors = append(survivors, i)
	}
	return raid.RebuildSpec{
		Survivors: survivors, Parity: FaultStripeWidth, Target: 0,
		CPU:      cpu,
		StartAt:  sim.Time(0).Add(o.Runtime / 2),
		Stripes:  int64(o.Runtime / (400 * sim.Microsecond)),
		Throttle: writeRebuildThrottle,
	}
}

// RunWriteAblation measures the client-visible RMW write ladder in four
// arms:
//
//   - clean: a healthy fleet, pure read-modify-write;
//   - degraded: DemoWritePlan (member pulled, then replaced) with kernel
//     timeouts armed but no RAID-level tolerance — errors fail requests
//     and every command to the dead member rides the timeout ladder;
//   - rebuild: the same plus the rebuild stream competing with
//     foreground writes from the replacement instant;
//   - tolerant: the same plus the full write tolerance stack — suspicion
//     routing, parity-only logging, hedged parity writes.
//
// The headline mirrors the read ablation: the tolerant arm's maximum
// stays hedge-bounded (sub-millisecond-class) while the untolerant
// degraded arms pay multi-millisecond timeouts.
func RunWriteAblation(o ExpOptions) []WriteRun {
	o = o.withDefaults()
	if o.NumSSDs <= FaultStripeWidth {
		panic(fmt.Sprintf("core: write ablation needs > %d SSDs", FaultStripeWidth))
	}

	run := func(name string, cfg Config, plan *fault.Plan, rebuild bool, tol *raid.Tolerance) WriteRun {
		opt := Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
			Geom: o.Geom, FaultPlan: plan}
		sys := NewSystem(opt)
		cpus := sys.Host.WorkloadCPUs()
		spec := writeClientSpec(name, cfg, o, tol)
		spec.CPU = cpus[0]
		var rb *raid.Rebuilder
		if rebuild {
			rb = raid.NewRebuilder(sys.Eng, sys.Kernel, writeRebuildSpec(o, cpus[len(cpus)-1]))
			rb.Start(nil)
		}
		res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{spec})[0]
		out := WriteRun{
			Name:              name,
			Ladder:            res.Ladder,
			Requests:          res.Requests,
			Failed:            res.FailedRequests,
			SubIOErrors:       res.SubIOErrors,
			RMWReads:          res.RMWReads,
			DataWrites:        res.DataWrites,
			ParityWrites:      res.ParityWrites,
			DegradedWrites:    res.DegradedWrites,
			ReconstructWrites: res.ReconstructWrites,
			ParityLogWrites:   res.ParityLogWrites,
			UnprotectedWrites: res.UnprotectedWrites,
			HedgedWrites:      res.HedgedWrites,
			WriteHedgeWins:    res.WriteHedgeWins,
			DupCompletions:    res.DupCompletions,
			Suspicions:        res.Suspicions,
			Probes:            res.Probes,
			IOStats:           sys.Kernel.IOStats(),
		}
		if rb != nil {
			r := rb.Result()
			out.Rebuild = &r
		}
		if sys.Faults != nil {
			out.Trace = sys.Faults.TraceString()
		}
		return out
	}

	// Four independent boots fanned out in parallel; each arm builds its
	// own plan and tolerance inside its job (DemoWritePlan is a pure
	// function of the horizon), so no fault-schedule state crosses
	// workers. Every faulted arm arms kernel timeouts: an offline device
	// never completes commands, so a host with no timeout at all would
	// simply hang — "untolerant" here means no RAID-level tolerance.
	type writeArm struct {
		name     string
		cfg      Config
		faulted  bool
		rebuild  bool
		tolerant bool
	}
	arms := []writeArm{
		{name: "clean", cfg: IRQAffinity()},
		{name: "degraded", cfg: FaultTolerance(), faulted: true},
		{name: "rebuild", cfg: FaultTolerance(), faulted: true, rebuild: true},
		{name: "tolerant", cfg: FaultTolerance(), faulted: true, rebuild: true, tolerant: true},
	}
	return runner.Map(o.runnerOpts(), arms, func(_ int, a writeArm) WriteRun {
		var plan *fault.Plan
		if a.faulted {
			p := DemoWritePlan(o.Runtime)
			plan = &p
		}
		var tol *raid.Tolerance
		if a.tolerant {
			tol = raid.DefaultTolerance(FaultStripeWidth)
		}
		return run(a.name, a.cfg, plan, a.rebuild, tol)
	})
}

// RunWriteLadder is the sweepable single-distribution form of the
// tolerant write arm: the full fault plan, rebuild stream, and tolerance
// stack at one seed, returning the write ladder for RunSeedSweep
// pooling (n seeds read as one n-client fleet).
func RunWriteLadder(o ExpOptions) Distribution {
	o = o.withDefaults()
	if o.NumSSDs <= FaultStripeWidth {
		panic(fmt.Sprintf("core: write ladder needs > %d SSDs", FaultStripeWidth))
	}
	cfg := FaultTolerance()
	plan := DemoWritePlan(o.Runtime)
	sys := NewSystem(Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
		Geom: o.Geom, FaultPlan: &plan})
	cpus := sys.Host.WorkloadCPUs()
	spec := writeClientSpec("write-ladder", cfg, o, raid.DefaultTolerance(FaultStripeWidth))
	spec.CPU = cpus[0]
	rb := raid.NewRebuilder(sys.Eng, sys.Kernel, writeRebuildSpec(o, cpus[len(cpus)-1]))
	rb.Start(nil)
	res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{spec})[0]
	ladders := []stats.Ladder{res.Ladder}
	return Distribution{Config: "writes-tolerant", Ladders: ladders,
		Summary: stats.Summarize(ladders)}
}

// writeReport lays out the four-arm comparison: client ladders side by
// side, then the write-path and kernel counters, then the rebuild
// streams' progress.
func writeReport(runs []WriteRun) Report {
	rep := Report{Sections: armTables(runs, func(r WriteRun) Arm { return ladderArm(r.Name, r.Ladder).traced(r.Trace) },
		count("requests", func(r WriteRun) int64 { return r.Requests }),
		count("failed", func(r WriteRun) int64 { return r.Failed }),
		count("sub-I/O errors", func(r WriteRun) int64 { return r.SubIOErrors }),
		count("rmw reads", func(r WriteRun) int64 { return r.RMWReads }),
		count("data writes", func(r WriteRun) int64 { return r.DataWrites }),
		count("parity writes", func(r WriteRun) int64 { return r.ParityWrites }),
		count("degraded writes", func(r WriteRun) int64 { return r.DegradedWrites }),
		count("reconstruct", func(r WriteRun) int64 { return r.ReconstructWrites }),
		count("parity-log", func(r WriteRun) int64 { return r.ParityLogWrites }),
		count("unprotected", func(r WriteRun) int64 { return r.UnprotectedWrites }),
		count("hedged writes", func(r WriteRun) int64 { return r.HedgedWrites }),
		count("hedge wins", func(r WriteRun) int64 { return r.WriteHedgeWins }),
		count("dup completions", func(r WriteRun) int64 { return r.DupCompletions }),
		count("suspicions", func(r WriteRun) int64 { return r.Suspicions }),
		count("probes", func(r WriteRun) int64 { return r.Probes }),
		count("kern timeouts", func(r WriteRun) int64 { return r.IOStats.Timeouts }),
		count("kern wr timeouts", func(r WriteRun) int64 { return r.IOStats.WriteTimeouts }),
		count("kern retries", func(r WriteRun) int64 { return r.IOStats.Retries }),
		count("kern exhausted", func(r WriteRun) int64 { return r.IOStats.Exhausted }))}
	counters := &rep.Sections[1]
	for _, r := range runs {
		if rb := r.Rebuild; rb != nil {
			note := fmt.Sprintf("%s rebuild: %d/%d stripes (failed %d) reads=%d writes=%d done=%v",
				r.Name, rb.StripesRebuilt, rb.Spec.Stripes, rb.StripesFailed, rb.Reads, rb.Writes, rb.Done)
			if rb.Done {
				note += fmt.Sprintf(" elapsed=%.1fms", float64(rb.FinishedAt.Sub(rb.StartedAt))/1e6)
			}
			counters.Notes = append(counters.Notes, "", note)
		}
	}
	return rep
}

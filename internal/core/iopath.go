// Low-latency I/O-path experiments: the {IRQ, coalesced, polling,
// passthrough} × {flash, ULL} grid — the headline comparison no single
// source paper has. The 2018 paper tuned the 2016-era interrupt-driven
// stack for ~25 µs flash; the related work ("Faster than Flash", the NVMe
// I/O-queues-passthrough paper) describes what replaced it once ~3 µs
// Z-NAND-class devices made host software the dominant latency term. This
// ablation runs both device classes through all four host I/O paths and
// accounts for what each latency win costs in host CPU burn — and what
// the passthrough arm gives up in kernel tolerance (injected transient
// errors retry invisibly on the kernel arms and surface raw on the
// passthrough arm).

package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// iopathFaultSSD carries the ablation's tolerance-interaction probe: a
// small transient-error rate on one device. The kernel arms absorb the
// errors through timeout/retry (Retried > 0, Errors ≈ 0); the passthrough
// arm has no kernel underneath, so the same errors surface to the tenant.
const iopathFaultSSD = 1

// iopathTransientRate is the per-command error probability on the probe
// device — high enough to count, low enough to leave the ladders clean.
const iopathTransientRate = 0.004

// IOPathArms lists the four host I/O paths in figure order.
var IOPathArms = []string{"irq", "coalesced", "polling", "passthrough"}

// IOPathDevices lists the device classes in figure order.
var IOPathDevices = []nvme.DeviceClass{nvme.ClassFlash, nvme.ClassULL}

// IOPathRun is one cell of the grid.
type IOPathRun struct {
	Name   string // "flash/polling"
	Device string // flash | ull
	Arm    string // irq | coalesced | polling | passthrough
	// Ladder pools every active SSD's completion latencies.
	Ladder stats.Ladder
	IOs    int64
	// Tolerance interaction (see iopathFaultSSD): Errors are non-success
	// statuses the workload saw; Retried/TimedOut are kernel-tier rescues
	// (always zero on the passthrough arm — there is no kernel to rescue).
	Errors   int64
	Retried  int64
	TimedOut int64
	// Host-CPU-burn accounting: PollSpins counts CQ poll iterations,
	// Interrupts the MSI-X deliveries (local + remote), BusyNs the total
	// host CPU busy time, and CPUPerIONs the busy nanoseconds per I/O —
	// the price column next to the latency win.
	PollSpins  int64
	LocalIRQs  int64
	RemoteIRQs int64
	BusyNs     int64
	CPUPerIONs float64
}

// Mean reports the cell's mean completion latency in nanoseconds.
func (r IOPathRun) Mean() float64 { return r.Ladder.Avg }

// iopathConfig assembles one arm's configuration on one device class.
// Every arm starts from the tuned scheduler side of ExpFirmware (chrt +
// isolcpus + no-SMART firmware) with the host tolerance machinery armed,
// so the arms differ only in the completion path:
//
//   - irq / coalesced run stock MSI-X delivery — vectors spread by the
//     balancer as shipped, so completions pay the hardirq/softirq chain
//     and, usually, a remote delivery (IPI + idle-CPU wake). Pinning the
//     2,560 vectors (Section IV-D) is itself one of the interrupt-era
//     remedies that the polling and passthrough arms subsume: those arms
//     take no interrupt at all, so there is nothing to pin.
//   - polling keeps the kernel submit path but reaps CQEs from the
//     workload thread's own context (no interrupt, no sleep/wake).
//   - passthrough maps the SQ/CQ pair into the tenant and skips the
//     kernel tier in both directions.
func iopathConfig(arm string, dev nvme.DeviceClass) Config {
	cfg := ExpFirmware()
	cfg.PinIRQs = false
	cfg.Timeout = kernel.DefaultTimeoutPolicy()
	cfg.Device = dev
	switch arm {
	case "irq":
		// Stock interrupt delivery as-is.
	case "coalesced":
		cfg.Coalesce = kernel.Coalescing{Threshold: 4, Timeout: 20 * sim.Microsecond}
	case "polling":
		cfg.Mode = kernel.CompletePolling
	case "passthrough":
		cfg.Passthrough = true
	default:
		panic(fmt.Sprintf("core: unknown iopath arm %q", arm))
	}
	cfg.Name = dev.String() + "/" + arm
	return cfg
}

// iopathFaultPlan arms the tolerance-interaction probe.
func iopathFaultPlan() fault.Plan {
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: iopathFaultSSD, TransientRate: iopathTransientRate},
	}}
}

// runIOPathCell boots one (arm, device) system and measures the standard
// per-SSD QD1 randread fleet on it.
func runIOPathCell(arm string, dev nvme.DeviceClass, o ExpOptions) IOPathRun {
	cfg := iopathConfig(arm, dev)
	plan := iopathFaultPlan()
	sys := NewSystem(Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
		Geom: o.Geom, FaultPlan: &plan})
	res := sys.RunFIO(RunSpec{Runtime: o.Runtime})

	out := IOPathRun{
		Name:   cfg.Name,
		Device: dev.String(),
		Arm:    arm,
		Ladder: stats.LadderOf(mergedHistogram(res)),
	}
	for _, r := range res {
		if r == nil {
			continue
		}
		out.IOs += r.IOs
		out.Errors += r.Errors
		out.Retried += r.Retried
		out.TimedOut += r.TimedOut
		out.PollSpins += r.PollSpins
	}
	out.LocalIRQs, out.RemoteIRQs, _ = sys.IRQ.Stats()
	var busy sim.Duration
	for i := 0; i < sys.Sched.NumCPUs(); i++ {
		busy += sys.Sched.CPU(i).BusyTime()
	}
	out.BusyNs = int64(busy)
	if out.IOs > 0 {
		out.CPUPerIONs = float64(out.BusyNs) / float64(out.IOs)
	}
	return out
}

// RunIOPathAblation measures the full 4-arm × 2-device grid. Cells are
// independent boots and fan out across o.Parallel workers; the result is
// ordered device-major (all flash arms, then all ULL arms), matching
// IOPathDevices × IOPathArms.
func RunIOPathAblation(o ExpOptions) []IOPathRun {
	o = o.withDefaults()
	type cell struct {
		arm string
		dev nvme.DeviceClass
	}
	var cells []cell
	for _, dev := range IOPathDevices {
		for _, arm := range IOPathArms {
			cells = append(cells, cell{arm: arm, dev: dev})
		}
	}
	return runner.Map(o.runnerOpts(), cells, func(_ int, c cell) IOPathRun {
		return runIOPathCell(c.arm, c.dev, o)
	})
}

// RunIOPathLadder is the sweepable single-distribution form: the ULL
// passthrough cell's per-SSD ladders at one seed, for RunSeedSweep
// pooling (the fastest arm is the one whose tail needs the resolution).
func RunIOPathLadder(o ExpOptions) Distribution {
	o = o.withDefaults()
	cfg := iopathConfig("passthrough", nvme.ClassULL)
	plan := iopathFaultPlan()
	sys := NewSystem(Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg,
		Geom: o.Geom, FaultPlan: &plan})
	res := sys.RunFIO(RunSpec{Runtime: o.Runtime})
	d := NewDistribution("iopath-ull-passthrough", res)
	return d
}

// iopathReport lays out the grid: per-device rung × arm latency tables
// with the counter rows underneath, then the two verdicts the ablation
// asks for — does the flash device keep the paper's ordering, and do
// polling/passthrough invert it on ULL.
func iopathReport(runs []IOPathRun) Report {
	var rep Report
	for _, dev := range IOPathDevices {
		var arms []IOPathRun
		s := Section{Heading: dev.String() + " device, per-SSD QD1 randread (pooled ladders):"}
		var names []string
		for _, r := range runs {
			if r.Device == dev.String() {
				arms = append(arms, r)
				s.Arms = append(s.Arms, ladderArm(r.Name, r.Ladder))
				names = append(names, r.Arm)
			}
		}
		us := func(name string, of func(IOPathRun) float64, prec int) stat[IOPathRun] {
			return stat[IOPathRun]{name: name, prec: prec, of: func(r IOPathRun) float64 { return of(r) / 1e3 }}
		}
		rows := []stat[IOPathRun]{us("mean", IOPathRun.Mean, 1)}
		rows = append(rows, rungStats(func(r IOPathRun, i int) float64 { return r.Ladder.Rung(i) })...)
		rows = append(rows,
			us("max", func(r IOPathRun) float64 { return float64(r.Ladder.Max) }, 1),
			count("ios", func(r IOPathRun) int64 { return r.IOs }),
			count("errors", func(r IOPathRun) int64 { return r.Errors }),
			count("retried", func(r IOPathRun) int64 { return r.Retried }),
			count("timedout", func(r IOPathRun) int64 { return r.TimedOut }),
			count("pollspins", func(r IOPathRun) int64 { return r.PollSpins }),
			count("irqs", func(r IOPathRun) int64 { return r.LocalIRQs + r.RemoteIRQs }),
			count("cpu(ms)", func(r IOPathRun) int64 { return r.BusyNs / 1e6 }),
			us("cpu/io(µs)", func(r IOPathRun) float64 { return r.CPUPerIONs }, 2))
		s.Counters = statRows("lat(µs)", names, arms, rows...)
		rep.Sections = append(rep.Sections, s)
	}

	find := func(dev, arm string) *IOPathRun {
		for i := range runs {
			if runs[i].Device == dev && runs[i].Arm == arm {
				return &runs[i]
			}
		}
		return nil
	}
	var notes []string
	if irq, poll, pt := find("flash", "irq"), find("flash", "polling"), find("flash", "passthrough"); irq != nil && poll != nil && pt != nil {
		notes = append(notes, fmt.Sprintf("flash: polling %.2f× and passthrough %.2f× vs irq mean — "+
			"the paper's regime: the ~25 µs device bounds the win", irq.Mean()/poll.Mean(), irq.Mean()/pt.Mean()))
	}
	if irq, poll, pt := find("ull", "irq"), find("ull", "polling"), find("ull", "passthrough"); irq != nil && poll != nil && pt != nil {
		verdict := "INVERTED: host software dominated the device"
		if irq.Mean() < 2*poll.Mean() || irq.Mean() < 2*pt.Mean() {
			verdict = "NOT inverted (expected ≥2× for polling and passthrough)"
		}
		notes = append(notes, fmt.Sprintf("ull:   polling %.2f× and passthrough %.2f× vs irq mean — %s",
			irq.Mean()/poll.Mean(), irq.Mean()/pt.Mean(), verdict))
	}
	if ptF, ptU := find("flash", "passthrough"), find("ull", "passthrough"); ptF != nil && ptU != nil {
		notes = append(notes, fmt.Sprintf("tolerance: passthrough surfaced %d raw errors (flash) / %d (ull); "+
			"kernel arms retried them invisibly", ptF.Errors, ptU.Errors))
	}
	rep.Sections = append(rep.Sections, Section{Notes: notes})
	return rep
}

package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/raid"
	"repro/internal/sim"
)

// size is the load of one run. The benchmark uses fullSize; the tests use
// a tiny size so they add seconds, not minutes, to the suite.
type size struct {
	numSSDs int
	// geom is the NAND geometry; the zero value is the Table I device.
	geom nand.Geometry
	// runtime is the measured simulated interval of each workload.
	runtime map[string]sim.Duration
	// tenants is the tenant-mix population.
	tenants int
}

// fullSize puts every read and write count well inside its decade, so the
// tail rung (see tailRung) does not flip between seeds: default-qd1 ≈ 253 k
// reads (p99.99), ull-passthrough ≈ 440 k (p99.99), tenant-mix ≈ 80 k
// latency-class reads and ≈ 94 k background writes (p99.9), raid-tolerant
// ≈ 13.7 k striped reads and ≈ 21.6 k RMW writes (p99.9).
var fullSize = size{
	numSSDs: 64,
	runtime: map[string]sim.Duration{
		"default-qd1":     250 * sim.Millisecond,
		"ull-passthrough": 100 * sim.Millisecond,
		"tenant-mix":      200 * sim.Millisecond,
		"raid-tolerant":   1500 * sim.Millisecond,
	},
	tenants: 100_000,
}

// warmup lets daemons start and the IRQ balancer run before the first
// measured instant; it is RunSpec's default.
const warmup = 50 * sim.Millisecond

// tenantOffered is tenant-mix's aggregate offered rate in I/Os per
// second: below the array's knee (~3.75 M IOPS on 64 SSDs), so the
// backlog does not grow over the run.
const tenantOffered = 2e6

// The raid-tolerant layout: reads stripe over SSDs 0-7 with parity 8 (the
// stripe core.DemoHedgePlan faults), RMW writes over SSDs 9-16 with parity
// 17, and a rebuild stream reconstructs member 0 after it is replaced.
const (
	stripeWidth   = core.FaultStripeWidth
	writeStripeLo = stripeWidth + 1
	writeParity   = writeStripeLo + stripeWidth
	rebuildTarget = 0
	// rebuildThrottle and rebuildStripeCost mirror the write ablation's
	// rebuild stream: one stripe per 100 µs pause plus service time,
	// sized to keep the stream busy until the end of the run.
	rebuildThrottle   = 100 * sim.Microsecond
	rebuildStripeCost = 400 * sim.Microsecond
)

// workload is one named traffic mix. Each method is one step of a run;
// the caller times each step as a span.
type workload struct {
	name string
	// boot returns the options core.NewSystem is called with.
	boot func(sz size, seed uint64) core.Options
	// clients constructs the workload's clients on a booted system.
	clients func(r *rig)
	// written lists the SSDs whose FTL the workload writes; set-up builds
	// it with nand.Device.Precondition(0) so the lazy build does not land
	// inside the measured run.
	written func(r *rig) []int
	// run is the measured call: it drives the engine until the clients
	// drain.
	run func(r *rig)
	// collect reads the clients' results into simulated metrics.
	collect func(r *rig) simResult
}

// rig is one booted system plus the workload state of one run.
type rig struct {
	sz     size
	seed   uint64
	traced bool
	sys    *core.System

	fioSpec core.RunSpec
	fioRes  []*fio.Result

	mux    *fio.Multiplexer
	muxRes *fio.MuxResult

	raidSpecs []raid.ClientSpec
	raidRes   []*raid.Result
	rebuild   *raid.Rebuilder
}

func (r *rig) runtime(name string) sim.Duration { return r.sz.runtime[name] }

var workloads = []workload{defaultQD1, ullPassthrough, tenantMix, raidTolerant}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// defaultQD1 is the paper's own traffic (Fig 6): 64 SSDs under the stock
// kernel, one pinned QD1 4 KiB randread job per SSD. SMART periods and
// daemon sleeps are compressed by runtime/120 s as core's figure runners
// do, so a short run sees as many SMART windows as the paper's 120 s run.
var defaultQD1 = workload{
	name: "default-qd1",
	boot: func(sz size, seed uint64) core.Options {
		scale := float64(sz.runtime["default-qd1"]) / float64(120*sim.Second)
		fw := nvme.DefaultFirmware()
		fw.SMARTPeriod = sim.Duration(float64(fw.SMARTPeriod) * scale)
		return core.Options{
			NumSSDs: sz.numSSDs, Seed: seed, Config: core.Default(), Geom: sz.geom,
			FirmwareOverride: &fw,
			Daemons:          kernel.ScaleDaemonPeriods(kernel.DefaultDaemons(), scale),
		}
	},
	clients: func(r *rig) { r.fioSpec = fioSpec(r, "default-qd1") },
	written: func(*rig) []int { return nil },
	run:     runFIO,
	collect: collectFIO,
}

// ullPassthrough is the iopath ablation's ull/passthrough cell:
// Z-NAND-class devices on the Gen4 cut-through fabric, the tuned kernel
// with SMART-free firmware, tenant-owned SQ/CQ pairs reaped by CQ
// spinning. It carries no fault plan: passthrough would surface transient
// errors raw as failed operations, and every workload here is built so
// that no operation fails.
var ullPassthrough = workload{
	name: "ull-passthrough",
	boot: func(sz size, seed uint64) core.Options {
		cfg := core.ExpFirmware()
		cfg.PinIRQs = false
		cfg.Timeout = kernel.DefaultTimeoutPolicy()
		cfg.Device = nvme.ClassULL
		cfg.Passthrough = true
		cfg.Name = "ull/passthrough"
		return core.Options{NumSSDs: sz.numSSDs, Seed: seed, Config: cfg, Geom: sz.geom}
	},
	clients: func(r *rig) { r.fioSpec = fioSpec(r, "ull-passthrough") },
	written: func(*rig) []int { return nil },
	run:     runFIO,
	collect: collectFIO,
}

// fioSpec is the measured RunFIO call. The benchmark runs the warm-up
// itself so it can be timed as set-up; RunSpec has no zero warm-up, so
// the residual is one simulated nanosecond.
func fioSpec(r *rig, name string) core.RunSpec {
	return core.RunSpec{Runtime: r.runtime(name), Warmup: sim.Nanosecond, Phases: r.traced}
}

func runFIO(r *rig) { r.fioRes = r.sys.RunFIO(r.fioSpec) }

// tenantMix is the open-loop workload: 100k tenants multiplexed onto the
// array under IRQAffinity at 2 M IOPS offered — 20% Poisson
// latency-class readers, 50% MMPP throughput-class readers and 30%
// diurnal background writers, every class spread over every SSD.
var tenantMix = workload{
	name: "tenant-mix",
	boot: func(sz size, seed uint64) core.Options {
		return core.Options{NumSSDs: sz.numSSDs, Seed: seed, Config: core.IRQAffinity(), Geom: sz.geom}
	},
	clients: func(r *rig) {
		r.mux = fio.NewMultiplexer(r.sys.Eng, r.sys.Kernel, fio.MuxConfig{
			Name:    "tenant-mix",
			Runtime: r.runtime("tenant-mix"),
			Seed:    r.seed,
			CPUs:    r.sys.Host.WorkloadCPUs(),
			Phases:  r.traced,
		})
		n := len(r.sys.SSDs)
		for t := 0; t < r.sz.tenants; t++ {
			spec := fio.TenantSpec{
				SSD:     t % n,
				Arrival: fio.ArrivalSpec{Rate: tenantOffered / float64(r.sz.tenants)},
			}
			switch m := t % 10; {
			case m < 2:
				spec.Class, spec.RW, spec.Arrival.Kind = kernel.ClassLatency, fio.RandRead, fio.ArrivalPoisson
			case m < 7:
				spec.Class, spec.RW, spec.Arrival.Kind = kernel.ClassThroughput, fio.RandRead, fio.ArrivalMMPP
			default:
				spec.Class, spec.RW, spec.Arrival.Kind = kernel.ClassBackground, fio.RandWrite, fio.ArrivalDiurnal
			}
			r.mux.AddTenant(spec)
		}
	},
	// Background writers land on every SSD (tenant t writes SSD t mod n).
	written: func(r *rig) []int {
		all := make([]int, len(r.sys.SSDs))
		for i := range all {
			all[i] = i
		}
		return all
	},
	run:     func(r *rig) { r.muxRes = r.mux.Run() },
	collect: collectMux,
}

// raidTolerant runs the adaptive control plane under DemoHedgePlan's
// faults (member 0 drops and is replaced, member 3 is a ×20 slow bin, GC
// storms on member 5 and the parity): a QD-4 striped reader with
// adaptive hedging, an RMW writer on a second, healthy stripe, and the
// rebuild stream reconstructing member 0 from its replacement instant.
var raidTolerant = workload{
	name: "raid-tolerant",
	boot: func(sz size, seed uint64) core.Options {
		// The fault schedule spans the whole simulated timeline, warm-up
		// included, so the outage and the storms fall inside the run.
		plan := core.DemoHedgePlan(warmup + sz.runtime["raid-tolerant"])
		return core.Options{NumSSDs: sz.numSSDs, Seed: seed, Config: core.AdaptiveBudgets(), Geom: sz.geom, FaultPlan: &plan}
	},
	clients: func(r *rig) {
		cfg := r.sys.Config
		cpus := r.sys.Host.WorkloadCPUs()
		rt := r.runtime("raid-tolerant")

		readTol := raid.DefaultTolerance(stripeWidth)
		readTol.Adaptive = true
		read := raid.ClientSpec{
			Name: "striped-read", Stripe: members(0), CPU: cpus[0], Runtime: rt, QD: 4,
			Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio, Tol: readTol, Seed: r.seed,
		}
		writeTol := raid.DefaultTolerance(writeParity)
		writeTol.Adaptive = true
		write := raid.ClientSpec{
			Name: "rmw-write", Workload: raid.WorkloadWrite, Stripe: members(writeStripeLo),
			Parity: writeParity, CPU: cpus[1], Runtime: rt,
			Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio, Tol: writeTol, Seed: r.seed + 1,
		}
		r.raidSpecs = []raid.ClientSpec{read, write}

		survivors := members(0)[1:]
		r.rebuild = raid.NewRebuilder(r.sys.Eng, r.sys.Kernel, raid.RebuildSpec{
			Survivors: survivors, Parity: stripeWidth, Target: rebuildTarget,
			CPU:      cpus[len(cpus)-1],
			StartAt:  sim.Time(0).Add((warmup + rt) / 2), // DemoHedgePlan's replacement instant
			Stripes:  int64(rt / rebuildStripeCost),
			Throttle: rebuildThrottle,
		})
	},
	written: func(*rig) []int { return append(members(writeStripeLo), writeParity, rebuildTarget) },
	run: func(r *rig) {
		r.rebuild.Start(nil)
		r.raidRes = raid.Run(r.sys.Eng, r.sys.Kernel, r.raidSpecs)
	},
	collect: collectRAID,
}

// members lists the stripeWidth data members starting at SSD lo.
func members(lo int) []int {
	out := make([]int, stripeWidth)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

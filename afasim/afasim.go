// Package afasim is the public face of the library: a deterministic
// simulation of an NVMe all-flash-array testbed faithful to "Performance
// Analysis of NVMe SSD-based All-flash Array Systems" (ISPASS 2018),
// usable as a study platform for storage-stack tuning.
//
// The minimal flow:
//
//	sys := afasim.NewSystem(afasim.Options{NumSSDs: 64, Seed: 1,
//		Config: afasim.IRQAffinity()})
//	results := sys.RunFIO(afasim.RunSpec{Runtime: 2 * afasim.Second})
//	dist := afasim.NewDistribution(sys.Config.Name, results)
//
// Every figure of the paper has a RunFigNN function, and the named
// configurations reproduce the paper's tuning ladder: Default → CHRT →
// Isolcpus → IRQAffinity → ExpFirmware. Every figure, table and ablation
// is also one entry of the Experiments registry, whose Report renders
// with WriteReport. See EXPERIMENTS.md for the paper-vs-measured record.
//
// The heavy lifting lives in the internal packages (scheduler, IRQ
// subsystem, PCIe fabric, NVMe/NAND models, FIO-like generator); this
// package re-exports the stable surface so downstream modules depend only
// on it.
package afasim

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/raid"
	"repro/internal/sim"
)

// Re-exported simulated-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Duration is a span of simulated time in nanoseconds.
type Duration = sim.Duration

// Time is an instant of simulated time.
type Time = sim.Time

// Core types.
type (
	// System is one booted host attached to its share of the array.
	System = core.System
	// Options configure system construction.
	Options = core.Options
	// Config is a named kernel/firmware configuration.
	Config = core.Config
	// RunSpec describes one measurement run.
	RunSpec = core.RunSpec
	// Distribution is per-SSD ladders plus the cross-SSD aggregate.
	Distribution = core.Distribution
	// ExpOptions parameterize a figure reproduction.
	ExpOptions = core.ExpOptions
	// Headline is the abstract's ×8/×400 claim check.
	Headline = core.Headline
	// Experiment is one registry entry: a figure, table, the headline,
	// or an ablation.
	Experiment = core.Experiment
	// Report is the uniform result of every experiment.
	Report = core.Report
)

// Fault injection and host-side tolerance (see DESIGN.md §6).
type (
	// FaultPlan is a fleet-wide fault schedule (per-SSD Profiles).
	FaultPlan = fault.Plan
	// FaultProfile is one SSD's fault model.
	FaultProfile = fault.Profile
	// FaultWindow is a timed span of a fault condition.
	FaultWindow = fault.Window
	// FaultEvent is one failure-trace entry.
	FaultEvent = fault.Event
	// FaultInjector applies a plan and records the failure trace.
	FaultInjector = fault.Injector
	// RAIDTolerance configures degraded reads and hedged reads.
	RAIDTolerance = raid.Tolerance
	// FaultRun is one arm of the degraded-mode ablation.
	FaultRun = core.FaultRun
	// RecoveryResult is the drive drop-out/recovery time series.
	RecoveryResult = core.RecoveryResult
)

// System construction and measurement.
var (
	NewSystem       = core.NewSystem
	NewDistribution = core.NewDistribution
)

// The paper's tuning ladder (Section IV) and the Section VI prototypes.
var (
	Default        = core.Default
	CHRT           = core.CHRT
	Isolcpus       = core.Isolcpus
	IRQAffinity    = core.IRQAffinity
	ExpFirmware    = core.ExpFirmware
	FutureSched    = core.FutureSched
	FutureIRQ      = core.FutureIRQ
	FutureBoth     = core.FutureBoth
	FaultTolerance = core.FaultTolerance
)

// Fault-injection constructors and experiments.
var (
	NewFaultInjector     = fault.NewInjector
	MergeFaultPlans      = fault.Merge
	PeriodicStalls       = fault.PeriodicStalls
	DefaultRAIDTolerance = raid.DefaultTolerance
	DemoFaultPlan        = core.DemoFaultPlan
	RunFaultAblation     = core.RunFaultAblation
	RunRecoverySeries    = core.RunRecoverySeries
)

// Figure and table reproductions.
var (
	RunFig6     = core.RunFig6
	RunFig7     = core.RunFig7
	RunFig8     = core.RunFig8
	RunFig9     = core.RunFig9
	RunFig10    = core.RunFig10
	RunFig11    = core.RunFig11
	RunFig12    = core.RunFig12
	RunFig13    = core.RunFig13
	TableII     = core.TableII
	RunHeadline = core.RunHeadline
)

// Ablations and extensions.
var (
	RunFirmwareAblation   = core.RunFirmwareAblation
	RunPollingAblation    = core.RunPollingAblation
	RunFutureWorkAblation = core.RunFutureWorkAblation
	RunCoalescingAblation = core.RunCoalescingAblation
	RunUsedStateStudy     = core.RunUsedStateStudy
	RunTailAtScale        = core.RunTailAtScale
	RunPTSLatencyTest     = core.RunPTSLatencyTest
)

// The experiment registry: every figure, table, the headline and every
// ablation, each run by Experiment.Report.
var (
	Experiments = core.Experiments
	Lookup      = core.Lookup
)

// Report rendering.
var (
	WriteReport            = core.WriteReport
	WriteReportJSON        = core.WriteReportJSON
	WriteReportCSV         = core.WriteReportCSV
	WriteDistributionTable = core.WriteDistributionTable
	WriteComparisonTable   = core.WriteComparisonTable
	WriteTableII           = core.WriteTableII
	WriteFig10Summary      = core.WriteFig10Summary
	WriteHeadline          = core.WriteHeadline
	WriteDistributionJSON  = core.WriteDistributionJSON
	WriteDistributionCSV   = core.WriteDistributionCSV
	WriteFig10CSV          = core.WriteFig10CSV
)

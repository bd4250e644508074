package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// latency summarizes one operation kind's client-visible latencies in
// simulated nanoseconds.
type latency struct {
	n    int64
	mean float64
	// p50 is -1 when the layer exposes no histogram to take it from (the
	// multiplexer reports ladders only).
	p50    int64
	ladder stats.Ladder
}

// tailRung picks the highest ladder rung among p99 … p99.999 that still
// has at least ten samples beyond it: p99 needs n ≥ 1 000, each further
// nine ten times as many. ok is false below 1 000 samples.
func (l latency) tailRung() (rung int, beyond int64, ok bool) {
	need := int64(1000)
	rung = -1
	for i := 0; i < 4 && l.n >= need; i++ {
		rung, beyond = i, l.n*10/need
		need *= 10
	}
	return rung, beyond, rung >= 0
}

// tail is the value of tailRung's rung in nanoseconds.
func (l latency) tail() int64 {
	rung, _, ok := l.tailRung()
	if !ok {
		return 0
	}
	return l.ladder.P[rung]
}

// rungLabel names a ladder rung ("p99.99").
func rungLabel(rung int) string { return "p" + strings.TrimSuffix(stats.LadderLabels[rung+1], "%") }

func histLatency(h *stats.Histogram) latency {
	return latency{n: h.Count(), mean: h.Mean(), p50: h.Quantile(0.5), ladder: stats.LadderOf(h)}
}

func ladderLatency(l stats.Ladder) latency {
	return latency{n: l.N, mean: l.Avg, p50: -1, ladder: l}
}

// simResult is everything a run produced in simulated terms. It repeats
// exactly for a given seed and size; render is its fingerprint.
type simResult struct {
	// Client operations: an fio I/O, a mux arrival, or a RAID request.
	// completed+failed == attempted; failed counts errors, drops and
	// admission refusals. ops counts the operations that ran to an
	// outcome, served or errored: attempted minus admission refusals.
	attempted, completed, failed, ops int64
	read, write                       latency
	// events is sim.Engine.Steps() over the measured run.
	events uint64
	// layers are the per-layer simulated counters, in catalogue order.
	layers []metric
	// phases are mean per-phase latencies in ns and tracer the tracer's
	// counters (traced runs only).
	phases [len(phaseNames)]float64
	tracer []metric
	// ladders are every ladder the run produced, for the monotonicity
	// check; gateErr is the first conservation violation collect saw.
	ladders []stats.Ladder
	gateErr error
}

// render fingerprints the simulated outcome; phases and tracer counts are
// left out because only traced runs collect them.
func (s simResult) render() string {
	return fmt.Sprintf("%d/%d/%d r=%+v w=%+v ev=%d %v", s.attempted, s.completed, s.failed,
		s.read, s.write, s.events, s.layers)
}

func (s simResult) failedShare() float64 { return float64(s.failed) / float64(s.attempted) }

// snapshot holds the cumulative public counters of every layer at one
// instant; per-layer metrics are differences of two snapshots.
type snapshot struct {
	now                            sim.Time
	steps                          uint64
	sched                          sched.Stats
	irqLocal, irqRemote, irqPasses int64
	irqCross                       int64
	kern                           kernel.IOStats
	nvme                           nvme.Stats
	nand                           nand.Stats
	uplinkBusy, devBusy            sim.Duration
}

func takeSnapshot(sys *core.System) snapshot {
	s := snapshot{now: sys.Eng.Now(), steps: sys.Eng.Steps(), sched: sys.Sched.TotalStats(), kern: sys.Kernel.IOStats()}
	s.irqLocal, s.irqRemote, s.irqPasses = sys.IRQ.Stats()
	s.irqCross = sys.IRQ.CrossSocketDeliveries()
	for _, d := range sys.SSDs {
		st := d.Stats()
		s.nvme.Reads += st.Reads
		s.nvme.Writes += st.Writes
		s.nvme.SMARTWindows += st.SMARTWindows
		s.nvme.SMARTBlockedIOs += st.SMARTBlockedIOs
		s.nvme.TransientErrors += st.TransientErrors
		s.nvme.MediaErrors += st.MediaErrors
		s.nvme.DroppedCmds += st.DroppedCmds
		s.nvme.FaultStalls += st.FaultStalls
		ft := d.Flash.Stats()
		s.nand.GCRuns += ft.GCRuns
		s.nand.GCPageMoves += ft.GCPageMoves
		s.nand.Erases += ft.Erases
		s.nand.UnmappedRead += ft.UnmappedRead
	}
	s.uplinkBusy = sys.Fabric.Uplink.BusyTime()
	for _, l := range sys.Fabric.DevLinks {
		s.devBusy += l.BusyTime()
	}
	return s
}

// metric is one named value.
type metric struct {
	name  string
	value float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters derives the simulated per-layer metrics of the measured
// run from the snapshots around it and the workload's results. Metrics a
// workload does not exercise read 0.
func layerCounters(r *rig, a, b snapshot, res simResult) []metric {
	ops := float64(res.ops)
	k := b.kern
	ka := a.kern
	local, remote := b.irqLocal-a.irqLocal, b.irqRemote-a.irqRemote
	nv := func(f func(nvme.Stats) int64) float64 { return float64(f(b.nvme) - f(a.nvme)) }
	nd := func(f func(nand.Stats) int64) float64 { return float64(f(b.nand) - f(a.nand)) }
	window := float64(b.now.Sub(a.now))
	m := []metric{
		{"sched.busy_ns_per_io", float64(b.sched.BusyTime-a.sched.BusyTime) / ops},
		{"sched.stolen_ns_per_io", float64(b.sched.StolenTime-a.sched.StolenTime) / ops},
		{"sched.switches_per_io", float64(b.sched.Switches-a.sched.Switches) / ops},
		{"irq.local", float64(local)},
		{"irq.remote", float64(remote)},
		{"irq.remote_share", ratio(float64(remote), float64(local+remote))},
		{"irq.cross_socket", float64(b.irqCross - a.irqCross)},
		{"irq.balancer_passes", float64(b.irqPasses - a.irqPasses)},
		{"kernel.timeouts", float64(k.Timeouts - ka.Timeouts)},
		{"kernel.aborts", float64(k.Aborts - ka.Aborts)},
		{"kernel.retries", float64(k.Retries - ka.Retries)},
		{"kernel.exhausted", float64(k.Exhausted - ka.Exhausted)},
		{"kernel.budget_exhausted", float64(k.RetryBudgetExhausted - ka.RetryBudgetExhausted)},
		{"kernel.shed_to_reconstruct", float64(k.ShedToReconstruct - ka.ShedToReconstruct)},
		{"kernel.overload_entered", float64(k.OverloadEntered - ka.OverloadEntered)},
	}
	for c := 0; c < kernel.NumQoSClasses; c++ {
		m = append(m, metric{"kernel.class_submitted." + kernel.QoSClass(c).String(),
			float64(k.Class[c].Submitted - ka.Class[c].Submitted)})
	}
	reads, writes := nv(func(s nvme.Stats) int64 { return s.Reads }), nv(func(s nvme.Stats) int64 { return s.Writes })
	m = append(m,
		metric{"nvme.reads", reads},
		metric{"nvme.writes", writes},
		metric{"nvme.smart_windows", nv(func(s nvme.Stats) int64 { return s.SMARTWindows })},
		metric{"nvme.smart_blocked_share", ratio(nv(func(s nvme.Stats) int64 { return s.SMARTBlockedIOs }), reads+writes)},
		metric{"nvme.transient_errors", nv(func(s nvme.Stats) int64 { return s.TransientErrors })},
		metric{"nvme.media_errors", nv(func(s nvme.Stats) int64 { return s.MediaErrors })},
		metric{"nvme.dropped_cmds", nv(func(s nvme.Stats) int64 { return s.DroppedCmds })},
		metric{"nvme.fault_stalls", nv(func(s nvme.Stats) int64 { return s.FaultStalls })},
		metric{"nand.gc_runs", nd(func(s nand.Stats) int64 { return s.GCRuns })},
		metric{"nand.gc_page_moves", nd(func(s nand.Stats) int64 { return s.GCPageMoves })},
		metric{"nand.erases", nd(func(s nand.Stats) int64 { return s.Erases })},
		metric{"nand.unmapped_reads", nd(func(s nand.Stats) int64 { return s.UnmappedRead })},
		metric{"pcie.uplink_util", r.sys.Fabric.UplinkUtilization()},
		metric{"pcie.dev_busy_share", ratio(float64(b.devBusy-a.devBusy), window*float64(len(r.sys.Fabric.DevLinks)))},
		metric{"pcie.uplink_busy_share", ratio(float64(b.uplinkBusy-a.uplinkBusy), window)},
	)
	m = append(m, fioCounters(r, ops)...)
	m = append(m, raidCounters(r)...)
	m = append(m, healthCounters(r)...)
	return append(m,
		metric{"sim_read_p50_us", usOrZero(res.read.p50)},
		metric{"sim_read_p99_us", float64(res.read.ladder.P[0]) / 1e3},
		metric{"sim_read_tail_us", float64(res.read.tail()) / 1e3},
		metric{"sim_write_p50_us", usOrZero(res.write.p50)},
		metric{"sim_write_tail_us", float64(res.write.tail()) / 1e3},
		metric{"failed_share", res.failedShare()},
	)
}

func usOrZero(ns int64) float64 {
	if ns < 0 {
		return 0
	}
	return float64(ns) / 1e3
}

func fioCounters(r *rig, ops float64) []metric {
	var spins, remote, smart, retried, timedOut int64
	for _, res := range r.fioRes {
		if res == nil {
			continue
		}
		spins += res.PollSpins
		remote += res.RemoteIRQs
		smart += res.SMARTBlocked
		retried += res.Retried
		timedOut += res.TimedOut
	}
	var offered, admitted, shed, queued, throttled int64
	if mr := r.muxRes; mr != nil {
		offered, admitted = mr.Offered, mr.Admitted
		for _, c := range mr.Class {
			shed += c.Shed + c.QueueShed
			queued += c.Queued
			throttled += c.Throttled
		}
	}
	return []metric{
		{"fio.poll_spins_per_io", float64(spins) / ops},
		{"fio.remote_irqs", float64(remote)},
		{"fio.smart_blocked", float64(smart)},
		{"fio.retried", float64(retried)},
		{"fio.timed_out", float64(timedOut)},
		{"fio.mux_offered", float64(offered)},
		{"fio.mux_admitted_share", ratio(float64(admitted), float64(offered))},
		{"fio.mux_shed", float64(shed)},
		{"fio.mux_queued", float64(queued)},
		{"fio.mux_throttled", float64(throttled)},
	}
}

func raidCounters(r *rig) []metric {
	var req, sub, hedged, wins, suppressed, degR, degW, late, failed int64
	for _, res := range r.raidRes {
		req += res.Requests
		sub += res.SubIOs
		hedged += res.HedgedReads
		wins += res.HedgeWins
		suppressed += res.HedgesSuppressed
		degR += res.DegradedReads
		degW += res.DegradedWrites
		late += res.LateSubIOs
		failed += res.FailedRequests
	}
	var rebuilt int64
	if r.rebuild != nil {
		rebuilt = r.rebuild.Result().StripesRebuilt
	}
	return []metric{
		{"raid.requests", float64(req)},
		{"raid.sub_ios_per_request", ratio(float64(sub), float64(req))},
		{"raid.hedged_reads", float64(hedged)},
		{"raid.hedge_wins", float64(wins)},
		{"raid.hedges_suppressed", float64(suppressed)},
		{"raid.degraded_reads", float64(degR)},
		{"raid.degraded_writes", float64(degW)},
		{"raid.late_sub_ios", float64(late)},
		{"raid.failed_requests", float64(failed)},
		{"raid.rebuild_stripes", float64(rebuilt)},
	}
}

func healthCounters(r *rig) []metric {
	var suspect, maxDeadline int64
	if h := r.sys.Kernel.Health(); h != nil {
		for ssd := 0; ssd < h.NumDrives(); ssd++ {
			if h.Suspect(ssd) {
				suspect++
			}
			if d := int64(h.HedgeDeadline(ssd)); d > maxDeadline {
				maxDeadline = d
			}
		}
	}
	var events int
	if r.sys.Faults != nil {
		events = len(r.sys.Faults.Trace())
	}
	return []metric{
		{"health.suspect_drives", float64(suspect)},
		{"health.hedge_deadline_us.max", float64(maxDeadline) / 1e3},
		{"fault.events", float64(events)},
	}
}

// phaseNames are the per-phase metric suffixes, in fio.Phase order.
var phaseNames = [...]string{"submit_fetch", "housekeeping", "media", "return", "interrupt", "wakeup_reap"}

// phaseAcc merges phase reports, weighting each report's means by its
// sample count.
type phaseAcc struct {
	sum [len(phaseNames)]float64
	n   int64
}

func (p *phaseAcc) add(rep *fio.PhaseReport) {
	if rep == nil || rep.N() == 0 {
		return
	}
	for i := range p.sum {
		p.sum[i] += rep.Mean(fio.Phase(i)) * float64(rep.N())
	}
	p.n += rep.N()
}

func (p *phaseAcc) means() (out [len(phaseNames)]float64) {
	for i := range out {
		out[i] = ratio(p.sum[i], float64(p.n))
	}
	return out
}

// collectFIO reads closed-loop job results: every I/O is a read.
func collectFIO(r *rig) simResult {
	var s simResult
	h := stats.NewHistogram()
	var ph phaseAcc
	for _, res := range r.fioRes {
		if res == nil {
			continue
		}
		s.attempted += res.IOs
		s.failed += res.Errors
		if res.Hist.Count()+res.Errors != res.IOs && s.gateErr == nil {
			s.gateErr = fmt.Errorf("%s: %d served + %d failed != %d attempted",
				res.Spec.Name, res.Hist.Count(), res.Errors, res.IOs)
		}
		h.Merge(res.Hist)
		ph.add(res.Phases)
		s.ladders = append(s.ladders, res.Ladder)
	}
	s.completed = h.Count()
	s.ops = s.attempted
	s.read = histLatency(h)
	s.phases = ph.means()
	return s
}

// collectMux reads the multiplexer's per-class results. Reads are the
// latency-class tenants' (the class whose tail is the service objective;
// ladders of two classes cannot be merged exactly), writes are the
// background class's, the only class that writes.
func collectMux(r *rig) simResult {
	var s simResult
	mr := r.muxRes
	var refused int64
	var ph phaseAcc
	for i, c := range mr.Class {
		refused += c.Shed + c.QueueShed
		if c.Offered != c.Admitted+c.Shed+c.QueueShed && s.gateErr == nil {
			s.gateErr = fmt.Errorf("class %s: offered %d != admitted %d + shed %d + queue-shed %d",
				kernel.QoSClass(i), c.Offered, c.Admitted, c.Shed, c.QueueShed)
		}
		if c.Completed+c.Errors != c.Admitted && s.gateErr == nil {
			s.gateErr = fmt.Errorf("class %s: completed %d + errors %d != admitted %d",
				kernel.QoSClass(i), c.Completed, c.Errors, c.Admitted)
		}
		ph.add(c.Phases)
		s.ladders = append(s.ladders, c.Ladder)
	}
	s.ladders = append(s.ladders, mr.Total)
	s.attempted = mr.Offered
	s.completed = mr.Completed
	s.failed = mr.Errors + refused
	s.ops = mr.Admitted
	if s.completed+s.failed != s.attempted && s.gateErr == nil {
		s.gateErr = fmt.Errorf("completed %d + failed %d != offered %d", s.completed, s.failed, s.attempted)
	}
	s.read = ladderLatency(mr.Class[kernel.ClassLatency].Ladder)
	s.write = ladderLatency(mr.Class[kernel.ClassBackground].Ladder)
	s.phases = ph.means()
	return s
}

// collectRAID reads the striped reader (reads) and the RMW writer
// (writes); one operation is one striped request.
func collectRAID(r *rig) simResult {
	var s simResult
	for _, res := range r.raidRes {
		if res.Hist.Count() != res.Requests && s.gateErr == nil {
			s.gateErr = fmt.Errorf("%s: histogram holds %d samples for %d served requests",
				res.Spec.Name, res.Hist.Count(), res.Requests)
		}
		s.attempted += res.Requests + res.FailedRequests
		s.completed += res.Requests
		s.failed += res.FailedRequests
		s.ops += res.Requests + res.FailedRequests
		s.ladders = append(s.ladders, res.Ladder)
	}
	s.read = histLatency(r.raidRes[0].Hist)
	s.write = histLatency(r.raidRes[1].Hist)
	return s
}

// errGate marks a correctness-gate failure.
var errGate = errors.New("correctness gate failed")

// gate applies the per-workload correctness conditions to one run.
func gate(w string, s simResult) error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("%w: %s: %s", errGate, w, fmt.Sprintf(format, a...))
	}
	if s.gateErr != nil {
		return fail("%v", s.gateErr)
	}
	if s.completed < 1 {
		return fail("no operation completed")
	}
	if s.completed+s.failed != s.attempted {
		return fail("completed %d + failed %d != attempted %d", s.completed, s.failed, s.attempted)
	}
	for i, l := range s.ladders {
		if l.N == 0 {
			continue
		}
		prev := int64(0)
		for j, p := range l.P {
			if p < prev {
				return fail("ladder %d rung %s (%d ns) below the rung before it (%d ns)", i, rungLabel(j), p, prev)
			}
			prev = p
		}
		if l.Max < prev {
			return fail("ladder %d max %d ns below p99.9999 %d ns", i, l.Max, prev)
		}
	}
	if _, _, ok := s.read.tailRung(); !ok {
		return fail("%d reads: too few for a p99 with ten samples beyond it", s.read.n)
	}
	// Every workload is built so that no operation fails: raid-tolerant's
	// faults are absorbed by hedging, reconstruction and retries.
	if s.failed != 0 {
		return fail("%d failed operations", s.failed)
	}
	if w == "raid-tolerant" && layerValue(s.layers, "fault.events") <= 0 {
		return fail("no fault events fired")
	}
	return nil
}

func layerValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

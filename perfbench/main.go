// Command perfbench is the repository's benchmark. It runs one named
// workload against the public core/fio/raid API, checks the workload's
// outputs, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 a traced run gives the per-layer ones.
// README.md in this directory documents the workloads and metrics; run.sh
// builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload default-qd1 --seed 2018 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
)

// defaultSeed is the tuning seed; heldOutSeed is the seed every later
// performance claim must also hold on (README.md).
const (
	defaultSeed = 2018
	heldOutSeed = 20181
)

// minIterations is the fewest runs a timed measurement takes, however
// long one run is: every host metric is a median over runs.
const minIterations = 3

// traceEvents is the raw dispatch records the traced run's tracer keeps.
const traceEvents = 4096

// unitSpec names one reported metric and its unit.
type unitSpec struct{ name, unit string }

// endToEnd are the -trace 0 metrics, in BENCHMARK.json order.
var endToEnd = []unitSpec{
	{"sim_ios_per_s", "ops/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"events_per_io", "events/op"},
	{"allocs_per_io", "allocs/op"},
	{"sim_read_mean_us", "sim-us"},
}

// perLayer are the -trace 1 metrics, in BENCHMARK.json order.
var perLayer = func() []unitSpec {
	u := []unitSpec{
		{"sim.events_fired", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.pending_after_setup", "count"},
		{"sim.push_step_ns", "ns"},
		{"sim.timer_arm_cancel_ns", "ns"},
		{"sched.busy_ns_per_io", "ns/op"},
		{"sched.stolen_ns_per_io", "ns/op"},
		{"sched.switches_per_io", "1/op"},
		{"irq.local", "count"},
		{"irq.remote", "count"},
		{"irq.remote_share", "ratio"},
		{"irq.cross_socket", "count"},
		{"irq.balancer_passes", "count"},
		{"kernel.timeouts", "count"},
		{"kernel.aborts", "count"},
		{"kernel.retries", "count"},
		{"kernel.exhausted", "count"},
		{"kernel.budget_exhausted", "count"},
		{"kernel.shed_to_reconstruct", "count"},
		{"kernel.overload_entered", "count"},
		{"kernel.class_submitted.latency", "count"},
		{"kernel.class_submitted.throughput", "count"},
		{"kernel.class_submitted.background", "count"},
		{"nvme.reads", "count"},
		{"nvme.writes", "count"},
		{"nvme.smart_windows", "count"},
		{"nvme.smart_blocked_share", "ratio"},
		{"nvme.transient_errors", "count"},
		{"nvme.media_errors", "count"},
		{"nvme.dropped_cmds", "count"},
		{"nvme.fault_stalls", "count"},
		{"nand.ftl_init_s", "s"},
		{"nand.ftl_init_heap_mb", "MiB"},
		{"nand.gc_runs", "count"},
		{"nand.gc_page_moves", "count"},
		{"nand.erases", "count"},
		{"nand.unmapped_reads", "count"},
		{"pcie.uplink_util", "ratio"},
		{"pcie.dev_busy_share", "ratio"},
		{"pcie.uplink_busy_share", "ratio"},
		{"fio.poll_spins_per_io", "1/op"},
		{"fio.remote_irqs", "count"},
		{"fio.smart_blocked", "count"},
		{"fio.retried", "count"},
		{"fio.timed_out", "count"},
		{"fio.mux_add_tenant_ns", "ns"},
		{"fio.mux_offered", "count"},
		{"fio.mux_admitted_share", "ratio"},
		{"fio.mux_shed", "count"},
		{"fio.mux_queued", "count"},
		{"fio.mux_throttled", "count"},
		{"raid.requests", "count"},
		{"raid.sub_ios_per_request", "1/op"},
		{"raid.hedged_reads", "count"},
		{"raid.hedge_wins", "count"},
		{"raid.hedges_suppressed", "count"},
		{"raid.degraded_reads", "count"},
		{"raid.degraded_writes", "count"},
		{"raid.late_sub_ios", "count"},
		{"raid.failed_requests", "count"},
		{"raid.rebuild_stripes", "count"},
		{"health.suspect_drives", "count"},
		{"health.hedge_deadline_us.max", "sim-us"},
		{"fault.events", "count"},
		{"stats.record_ns", "ns"},
		{"stats.quantiles_ns", "ns"},
		{"stats.new_histogram_ns", "ns"},
		{"rng.lognormal_mean_ns", "ns"},
		{"rng.exp_ns", "ns"},
		{"core.boot_s", "s"},
		{"core.warmup_s", "s"},
		{"sim_read_p50_us", "sim-us"},
		{"sim_read_p99_us", "sim-us"},
		{"sim_read_tail_us", "sim-us"},
		{"sim_write_p50_us", "sim-us"},
		{"sim_write_tail_us", "sim-us"},
		{"failed_share", "ratio"},
	}
	for _, p := range phaseNames {
		u = append(u, unitSpec{"phase." + p + "_us", "sim-us"})
	}
	u = append(u,
		unitSpec{"trace.deliveries", "count"},
		unitSpec{"trace.remote_fraction", "ratio"},
		unitSpec{"trace.overhead_share", "ratio"},
	)
	for _, b := range selfShareBuckets {
		u = append(u, unitSpec{"host.self_share." + b, "ratio"})
	}
	return u
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the exit code: 0 on success, 1
// when a correctness gate fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "default-qd1", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var out report
	if *traced == 1 {
		out, err = tracedRun(w, fullSize, *seed, budget, stdout, stderr)
	} else {
		out, err = timedRun(w, fullSize, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		out.Metrics = map[string]value{}
		out.Correct = false
		writeJSON(stdout, out)
		return 1
	}
	writeJSON(stdout, out)
	return 0
}

// report is the final JSON line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(w io.Writer, r report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Fprintln(w, string(b))
}

// iteration is one boot-to-collection run of a workload.
type iteration struct {
	res simResult
	// Host-time spans of each step; setup is boot+clients+ftl+warmup.
	boot, clients, ftl, warm, run time.Duration
	// ftlHeap is the live-heap growth over the FTL build and warm-up
	// (warm-up retains next to nothing); peakHeap the
	// largest live heap at any step boundary; allocs the heap objects the
	// measured run allocated.
	ftlHeap, peakHeap int64
	allocs            uint64
	pending           int
	spans             []span
	// profile is the CPU profile of a traced iteration's measured run.
	profile    []byte
	profileErr error
}

func (it iteration) setup() time.Duration { return it.boot + it.clients + it.ftl + it.warm }

// span is one timed call the benchmark made into the program.
type span struct {
	name       string
	start, dur time.Duration
}

// liveHeap collects garbage and reports the bytes still reachable, so
// heap figures measure what the simulator holds rather than when the
// collector last ran. The collection happens between timed steps.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runOnce boots the workload's system, builds its clients, runs the
// measured call and collects the results, timing each step.
func runOnce(w workload, sz size, seed uint64, traced bool) iteration {
	var it iteration
	r := &rig{sz: sz, seed: seed, traced: traced}
	base := liveHeap()
	t0 := hostNow()
	step := func(name string, f func()) time.Duration {
		s := hostNow()
		f()
		d := hostNow().Sub(s)
		it.spans = append(it.spans, span{name: name, start: s.Sub(t0), dur: d})
		return d
	}
	peak := func() int64 {
		h := liveHeap() - base
		if h > it.peakHeap {
			it.peakHeap = h
		}
		return h
	}

	it.boot = step("boot", func() {
		opt := w.boot(sz, seed)
		if traced {
			opt.TraceEvents = traceEvents
		}
		r.sys = core.NewSystem(opt)
	})
	it.clients = step("clients", func() { w.clients(r) })
	before := peak()
	if written := w.written(r); len(written) > 0 {
		it.ftl = step("ftl", func() {
			for _, ssd := range written {
				r.sys.SSDs[ssd].Flash.Precondition(0)
			}
		})
	}
	it.warm = step("warmup", func() { r.sys.Eng.RunUntil(r.sys.Eng.Now().Add(warmup)) })
	it.pending = r.sys.Eng.Pending()
	// One collection covers both steps: warm-up retains next to nothing,
	// and collecting here, not mid-set-up, leaves the measured run a fresh
	// heap goal so no collection cycle lands inside it.
	if h := peak(); it.ftl > 0 {
		it.ftlHeap = h - before
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a := takeSnapshot(r.sys)
	it.run = step("run", func() {
		if !traced {
			w.run(r)
			return
		}
		var buf bytes.Buffer
		it.profileErr = pprof.StartCPUProfile(&buf)
		w.run(r)
		pprof.StopCPUProfile()
		it.profile = buf.Bytes()
	})
	runtime.ReadMemStats(&m1)
	b := takeSnapshot(r.sys)
	it.allocs = m1.Mallocs - m0.Mallocs

	step("collect", func() {
		it.res = w.collect(r)
		it.res.events = b.steps - a.steps
		it.res.layers = layerCounters(r, a, b, it.res)
		if r.sys.Tracer != nil {
			it.res.tracer = []metric{
				{"trace.deliveries", float64(r.sys.Tracer.Deliveries())},
				{"trace.remote_fraction", r.sys.Tracer.RemoteFraction()},
			}
		}
	})
	peak()
	runtime.KeepAlive(r) // the system stays reachable through the last heap sample
	return it
}

// measure runs iterations back to back until the budget is spent (at
// least minIterations), gating each and checking that every run at the
// seed reproduced the first one's simulated outcome. The loop stops
// before an iteration that would overrun the budget.
func measure(w workload, sz size, seed uint64, budget time.Duration, minRuns int) ([]iteration, error) {
	var its []iteration
	start := hostNow()
	for {
		elapsed := hostNow().Sub(start)
		if n := len(its); n >= minRuns && elapsed+elapsed/time.Duration(n) > budget {
			return its, nil
		}
		it := runOnce(w, sz, seed, false)
		if err := gate(w.name, it.res); err != nil {
			return nil, err
		}
		if len(its) > 0 {
			if err := sameOutcome(w.name, its[0].res, it.res, "a second run at the same seed"); err != nil {
				return nil, err
			}
		}
		its = append(its, it)
	}
}

func sameOutcome(w string, want, got simResult, what string) error {
	if a, b := want.render(), got.render(); a != b {
		return fmt.Errorf("%w: %s: %s changed the simulated outcome:\n  %s\n  %s", errGate, w, what, a, b)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over the iterations.
func medianOf(its []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

const mib = 1 << 20

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w workload, sz size, seed uint64, budget time.Duration, stdout io.Writer) (report, error) {
	its, err := measure(w, sz, seed, budget, minIterations)
	if err != nil {
		return report{}, err
	}
	res := its[0].res
	if w.name == ullPassthrough.name {
		if err := ullBelowDefault(sz, seed, res, nil); err != nil {
			return report{}, err
		}
	}
	ops := float64(res.ops)
	m := map[string]float64{
		"sim_ios_per_s":    medianOf(its, func(it iteration) float64 { return ops / it.run.Seconds() }),
		"setup_s":          medianOf(its, func(it iteration) float64 { return it.setup().Seconds() }),
		"peak_heap_mb":     medianOf(its, func(it iteration) float64 { return float64(it.peakHeap) / mib }),
		"events_per_io":    float64(res.events) / ops,
		"allocs_per_io":    medianOf(its, func(it iteration) float64 { return float64(it.allocs) / ops }),
		"sim_read_mean_us": res.read.mean / 1e3,
	}
	printSummary(stdout, w, seed, its, m)
	return finish(its, endToEnd, m)
}

// ullBelowDefault checks that the ULL passthrough path's median read sits
// below the stock flash fleet's at the same seed, running one default-qd1
// iteration unless ref already holds one.
func ullBelowDefault(sz size, seed uint64, ull simResult, ref *iteration) error {
	if ref == nil {
		it := runOnce(defaultQD1, sz, seed, false)
		ref = &it
	}
	if d, u := ref.res.read.p50, ull.read.p50; u >= d {
		return fmt.Errorf("%w: ull-passthrough: read p50 %.1f µs not below default-qd1's %.1f µs",
			errGate, float64(u)/1e3, float64(d)/1e3)
	}
	return nil
}

// finish assembles the report: the listed metrics, every one present,
// and the operation totals over all measured runs.
func finish(its []iteration, specs []unitSpec, m map[string]float64) (report, error) {
	out := report{Correct: true, Metrics: map[string]value{}}
	for _, it := range its {
		out.Attempted += it.res.attempted
		out.Failed += it.res.failed
	}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = value{Value: v, Unit: s.unit}
	}
	return out, nil
}

// printSummary prints the human-readable table: every end-to-end figure
// by name and unit, including the client-visible ones BENCHMARK.json
// reports per layer (median, tail rung, writes, failed share), n/a where
// a figure does not apply to the workload, and the per-run host figures
// the medians come from.
func printSummary(w io.Writer, wl workload, seed uint64, its []iteration, m map[string]float64) {
	res := its[0].res
	fmt.Fprintf(w, "workload %s seed %d: %d runs, %d ops/run (%d failed), host %d CPUs\n",
		wl.name, seed, len(its), res.attempted, res.failed, runtime.GOMAXPROCS(0))
	fmt.Fprint(w, "  per-run ops/s:")
	for _, it := range its {
		fmt.Fprintf(w, " %.0f", float64(res.ops)/it.run.Seconds())
	}
	fmt.Fprint(w, "\n  per-run setup s:")
	for _, it := range its {
		fmt.Fprintf(w, " %.4f", it.setup().Seconds())
	}
	fmt.Fprintln(w)
	row := func(name, unit, v string) { fmt.Fprintf(w, "  %-18s %-10s %s\n", name, unit, v) }
	num := func(name, unit string) { row(name, unit, fmt.Sprintf("%.6g", m[name])) }
	lat := func(kind string, l latency) {
		if l.n == 0 {
			row("sim_"+kind+"_p50_us", "sim-us", "n/a (no "+kind+"s)")
			row("sim_"+kind+"_tail_us", "sim-us", "n/a (no "+kind+"s)")
			return
		}
		if l.p50 < 0 {
			row("sim_"+kind+"_p50_us", "sim-us", "n/a (the multiplexer exposes ladders only)")
		} else {
			row("sim_"+kind+"_p50_us", "sim-us", fmt.Sprintf("%.6g", float64(l.p50)/1e3))
		}
		rung, beyond, ok := l.tailRung()
		if !ok {
			row("sim_"+kind+"_tail_us", "sim-us", fmt.Sprintf("n/a (%d samples)", l.n))
			return
		}
		row("sim_"+kind+"_tail_us", "sim-us", fmt.Sprintf("%.6g (%s of %d samples, %d beyond)",
			float64(l.tail())/1e3, rungLabel(rung), l.n, beyond))
	}
	for _, s := range endToEnd[:5] {
		num(s.name, s.unit)
	}
	lat("read", res.read)
	num("sim_read_mean_us", "sim-us")
	row("sim_read_p99_us", "sim-us", fmt.Sprintf("%.6g", float64(res.read.ladder.P[0])/1e3))
	lat("write", res.write)
	row("failed_share", "ratio", fmt.Sprintf("%.6g (%d of %d)", res.failedShare(), res.failed, res.attempted))
}

// tracedRun alternates untraced and traced iterations within the budget.
// Traced iterations turn on the phase decomposition and the tracer and
// record a CPU profile of the measured run; their simulated outcome must
// equal the untraced one. Per-layer metrics come from both: simulated counters and host
// times from the untraced runs, phases, tracer counts and self-time
// shares from the traced ones.
func tracedRun(w workload, sz size, seed uint64, budget time.Duration, stdout, stderr io.Writer) (report, error) {
	var plain, traced []iteration
	var profiles [][]byte
	start := hostNow()
	for {
		elapsed := hostNow().Sub(start)
		if n := len(traced); n >= 2 && elapsed+elapsed/time.Duration(n) > budget {
			break
		}
		it := runOnce(w, sz, seed, false)
		if err := gate(w.name, it.res); err != nil {
			return report{}, err
		}
		tr := runOnce(w, sz, seed, true)
		if tr.profileErr != nil {
			return report{}, fmt.Errorf("cpu profile: %w", tr.profileErr)
		}
		profiles = append(profiles, tr.profile)
		if err := sameOutcome(w.name, it.res, tr.res, "tracing"); err != nil {
			return report{}, err
		}
		if len(plain) > 0 {
			if err := sameOutcome(w.name, plain[0].res, it.res, "a second run at the same seed"); err != nil {
				return report{}, err
			}
		}
		plain, traced = append(plain, it), append(traced, tr)
	}

	// The event-queue microbenchmarks run at default-qd1's post-set-up
	// pending count; ull-passthrough also needs its median read.
	ref := &plain[0]
	if w.name != defaultQD1.name {
		it := runOnce(defaultQD1, sz, seed, false)
		ref = &it
	}
	if w.name == ullPassthrough.name {
		if err := ullBelowDefault(sz, seed, plain[0].res, ref); err != nil {
			return report{}, err
		}
	}
	shares, err := selfShares(profiles)
	if err != nil {
		return report{}, err
	}

	res := plain[0].res
	m := map[string]float64{}
	for _, l := range res.layers {
		m[l.name] = l.value
	}
	for _, l := range traced[0].res.tracer {
		m[l.name] = l.value
	}
	for _, l := range microbench(ref.pending, seed) {
		m[l.name] = l.value
	}
	runNs := medianOf(plain, func(it iteration) float64 { return float64(it.run.Nanoseconds()) })
	m["sim.events_fired"] = float64(res.events)
	m["sim.host_ns_per_event"] = runNs / float64(res.events)
	m["sim.pending_after_setup"] = float64(plain[0].pending)
	m["nand.ftl_init_s"] = medianOf(plain, func(it iteration) float64 { return it.ftl.Seconds() })
	m["nand.ftl_init_heap_mb"] = medianOf(plain, func(it iteration) float64 { return float64(it.ftlHeap) / mib })
	m["fio.mux_add_tenant_ns"] = 0
	if w.name == tenantMix.name {
		m["fio.mux_add_tenant_ns"] = medianOf(plain, func(it iteration) float64 { return float64(it.clients.Nanoseconds()) }) / float64(sz.tenants)
	}
	m["core.boot_s"] = medianOf(plain, func(it iteration) float64 { return it.boot.Seconds() })
	m["core.warmup_s"] = medianOf(plain, func(it iteration) float64 { return it.warm.Seconds() })
	for i, p := range phaseNames {
		m["phase."+p+"_us"] = traced[0].res.phases[i] / 1e3
	}
	tracedNs := medianOf(traced, func(it iteration) float64 { return float64(it.run.Nanoseconds()) })
	m["trace.overhead_share"] = tracedNs/runNs - 1
	for b, v := range shares {
		m["host.self_share."+b] = v
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced + %d traced (profiled) runs\n",
		w.name, seed, len(plain), len(traced))
	for _, s := range perLayer {
		fmt.Fprintf(stdout, "  %-36s %-8s %.6g\n", s.name, s.unit, m[s.name])
	}
	printSpans(stderr, w.name, plain, traced)
	return finish(plain, perLayer, m)
}

// printSpans writes every span the benchmark recorded, one line each:
// run kind and index, step name, start and duration in host ms.
func printSpans(w io.Writer, name string, sets ...[]iteration) {
	for k, its := range sets {
		kind := [...]string{"untraced", "traced"}[k]
		for i, it := range its {
			for _, s := range it.spans {
				fmt.Fprintf(w, "span %s %s#%d %-8s start=%.3fms dur=%.3fms\n", name, kind, i, s.name,
					float64(s.start.Microseconds())/1e3, float64(s.dur.Microseconds())/1e3)
			}
		}
	}
}

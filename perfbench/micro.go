package main

import (
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// microReps is how many times each microbenchmark is timed; the median
// is reported.
const microReps = 5

// microSink keeps results of the timed calls live so the compiler cannot
// drop them.
var microSink float64

// timeOp times ops calls of f (f does one call per index) and returns the
// median nanoseconds per call over microReps repetitions.
func timeOp(ops int, f func(i int)) float64 {
	per := make([]float64, microReps)
	for rep := range per {
		t0 := hostNow()
		for i := 0; i < ops; i++ {
			f(i)
		}
		per[rep] = float64(hostNow().Sub(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// microbench times single calls into the public functions of the sim,
// stats and rng layers. The event-queue benchmarks run with pending
// events already queued, the count measured after default-qd1's set-up,
// so the heap is as deep as it is in the headline run.
func microbench(pending int, seed uint64) []metric {
	const n = 1 << 12
	rnd := rng.New(seed)
	delays := make([]sim.Duration, n)
	lats := make([]int64, n)
	for i := range delays {
		delays[i] = sim.Duration(1 + rnd.Int63n(int64(sim.Millisecond)))
		lats[i] = int64(rnd.LogNormalMean(30e3, 0.5))
	}
	nop := func() {}

	eng := sim.NewEngine()
	for i := 0; i < pending; i++ {
		eng.After(delays[i%n], nop)
	}
	pushStep := timeOp(1<<18, func(i int) {
		eng.After(delays[i%n], nop)
		eng.Step()
	})
	tm := eng.NewTimer()
	armCancel := timeOp(1<<18, func(i int) {
		tm.Arm(delays[i%n], nop)
		tm.Cancel()
	})

	h := stats.NewHistogram()
	record := timeOp(1<<20, func(i int) { h.Record(lats[i%n]) })
	var q [len(stats.LadderNines)]int64
	quantiles := timeOp(1<<12, func(int) { h.Quantiles(stats.LadderNines[:], q[:]) })
	newHist := timeOp(1<<10, func(int) { microSink += float64(stats.NewHistogram().Count()) })

	lognormal := timeOp(1<<18, func(int) { microSink += rnd.LogNormalMean(30e3, 0.5) })
	exp := timeOp(1<<18, func(int) { microSink += rnd.Exp(1e3) })
	microSink += float64(q[0])

	return []metric{
		{"sim.push_step_ns", pushStep},
		{"sim.timer_arm_cancel_ns", armCancel},
		{"stats.record_ns", record},
		{"stats.quantiles_ns", quantiles},
		{"stats.new_histogram_ns", newHist},
		{"rng.lognormal_mean_ns", lognormal},
		{"rng.exp_ns", exp},
	}
}

// hostNow is the benchmark's one host-clock read.
func hostNow() time.Time {
	return time.Now() //afalint:allow wallclock -- the benchmark times host execution, not simulated time
}

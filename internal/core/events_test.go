package core

import (
	"testing"

	"repro/internal/sim"
)

// TestEventsPerIOLock pins the engine work a Fig 6-config run spends per
// completed I/O, so a change that puts a hop back on the per-I/O path
// (an extra stage event, a timer armed per idle period) fails here and
// not only in the external benchmark. Steps() counts every fired event,
// boot and warm-up included, over the completed I/Os of all jobs.
func TestEventsPerIOLock(t *testing.T) {
	o := ExpOptions{NumSSDs: 8, Runtime: 20 * sim.Millisecond, Seed: 2018}.withDefaults()
	sys := o.newSystem(Default())
	var ios int64
	for _, r := range sys.RunFIO(RunSpec{Runtime: o.Runtime}) {
		ios += r.IOs
	}
	steps := sys.Eng.Steps()
	if ios == 0 {
		t.Fatal("the run completed no I/Os")
	}
	// The ceiling is the exact ratio measured once the zero-stall media
	// hop was folded, the C-state deepen timer deleted and later-moving
	// timer re-arms deferred: 28441 events over 2874 I/Os (9.90 per I/O).
	// Before those cuts the same run fired 44155 (15.36 per I/O); idle
	// CPUs' deepen timers weigh more at this small scale than on the
	// 64-SSD headline. Compared cross-multiplied, so the bound is exact.
	const lockSteps, lockIOs = 28441, 2874
	if steps*lockIOs > lockSteps*uint64(ios) {
		t.Fatalf("%d events over %d I/Os = %.4f per I/O, want at most %d/%d = %.4f: a hop was added to the per-I/O path",
			steps, ios, float64(steps)/float64(ios), lockSteps, lockIOs, float64(lockSteps)/lockIOs)
	}
}

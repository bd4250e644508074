package sim

import "testing"

// rearmer is the part of a timer the equivalence test drives.
type rearmer interface {
	ArmAt(at Time, fn func())
	Cancel()
}

// eagerTimer is the reference timer: every re-arm cancels the queued
// pinned event and schedules a fresh one with At, so the heap always
// holds the timer at its current deadline.
type eagerTimer struct {
	eng *Engine
	ev  *Event
}

func (t *eagerTimer) ArmAt(at Time, fn func()) {
	t.eng.Cancel(t.ev)
	t.ev = t.eng.At(at, fn)
}

func (t *eagerTimer) Cancel() {
	t.eng.Cancel(t.ev)
	t.ev = nil
}

// countingTimer wraps a Timer and counts the re-arms it deferred, so
// the test can show the deferred path actually ran.
type countingTimer struct {
	*Timer
	deferred *int
}

func (t countingTimer) ArmAt(at Time, fn func()) {
	t.Timer.ArmAt(at, fn)
	if t.ev.deferred {
		*t.deferred++
	}
}

type firing struct {
	id int
	at Time
}

// timerHarness runs one engine through a pseudo-random op stream. Two
// harnesses with the same seed consume the stream in the order their
// callbacks run, so equal logs mean equal fire order and instants.
type timerHarness struct {
	eng    *Engine
	timers []rearmer
	state  uint64
	nextID int
	budget int // callbacks run further ops while this lasts
	log    []firing
}

// next returns a value in [0, n) from a splitmix64 stream.
func (d *timerHarness) next(n int) int {
	d.state += 0x9e3779b97f4a7c15
	z := d.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// delay favours zero and near-zero spans so same-instant ties and
// re-arms to the queued deadline itself are common.
func (d *timerHarness) delay() Duration {
	switch d.next(4) {
	case 0:
		return 0
	case 1:
		return Duration(d.next(3))
	case 2:
		return Duration(d.next(50))
	}
	return Duration(d.next(1000))
}

func (d *timerHarness) callback() func() {
	id := d.nextID
	d.nextID++
	return func() {
		d.log = append(d.log, firing{id, d.eng.Now()})
		if d.budget > 0 {
			d.budget--
			for n := d.next(3); n > 0; n-- {
				d.op()
			}
		}
	}
}

func (d *timerHarness) op() {
	switch k := d.next(10); {
	case k < 5:
		tm := d.timers[d.next(len(d.timers))]
		tm.ArmAt(d.eng.Now().Add(d.delay()), d.callback())
	case k < 7:
		d.timers[d.next(len(d.timers))].Cancel()
	default:
		d.eng.Schedule(d.delay(), d.callback())
	}
}

func (d *timerHarness) run() {
	for round := 0; round < 300; round++ {
		for n := d.next(4); n > 0; n-- {
			d.op()
		}
		d.eng.RunUntil(d.eng.Now().Add(Duration(d.next(200))))
	}
	d.eng.Run()
}

// TestTimerDeferredRearmMatchesEager drives random Arm/ArmAt/Cancel,
// Schedule and RunUntil sequences through Timer (which defers
// later-moving re-arms) and through an eager At+Cancel reference, and
// requires the same fire order, fire instants and step count.
func TestTimerDeferredRearmMatchesEager(t *testing.T) {
	const numTimers = 4
	totalDeferred := 0
	for seed := uint64(1); seed <= 40; seed++ {
		lazy := &timerHarness{eng: NewEngine(), state: seed, budget: 3000}
		ref := &timerHarness{eng: NewEngine(), state: seed, budget: 3000}
		for i := 0; i < numTimers; i++ {
			lazy.timers = append(lazy.timers, countingTimer{lazy.eng.NewTimer(), &totalDeferred})
			ref.timers = append(ref.timers, &eagerTimer{eng: ref.eng})
		}
		lazy.run()
		ref.run()
		if len(lazy.log) != len(ref.log) {
			t.Fatalf("seed %d: %d firings, reference %d", seed, len(lazy.log), len(ref.log))
		}
		for i := range ref.log {
			if lazy.log[i] != ref.log[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, lazy.log[i], ref.log[i])
			}
		}
		if lazy.eng.Steps() != ref.eng.Steps() || lazy.eng.Now() != ref.eng.Now() {
			t.Fatalf("seed %d: steps %d at %v, reference %d at %v",
				seed, lazy.eng.Steps(), lazy.eng.Now(), ref.eng.Steps(), ref.eng.Now())
		}
		if lazy.eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after Run", seed, lazy.eng.Pending())
		}
	}
	if totalDeferred < 1000 {
		t.Fatalf("only %d re-arms took the deferred path; the test is not exercising it", totalDeferred)
	}
}

// deferredTimer returns a timer armed at 10 and then re-armed to 100:
// queued at its 10 key, deferred to 100.
func deferredTimer(t *testing.T, e *Engine, fired *[]Time) *Timer {
	t.Helper()
	tm := e.NewTimer()
	tm.ArmAt(10, func() { *fired = append(*fired, -1) })
	tm.ArmAt(100, func() { *fired = append(*fired, e.Now()) })
	if !tm.ev.deferred || tm.ev.when != 10 {
		t.Fatalf("re-arm to a later deadline was not deferred (deferred=%v when=%v)", tm.ev.deferred, tm.ev.when)
	}
	return tm
}

func TestRunUntilStopsBeforeDeferredDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := deferredTimer(t, e, &fired)
	e.RunUntil(50)
	if len(fired) != 0 || e.Steps() != 0 {
		t.Fatalf("RunUntil(50) fired %v (%d steps); the deadline is 100", fired, e.Steps())
	}
	if e.Now() != 50 || !tm.Armed() || tm.ev.When() != 100 {
		t.Fatalf("after RunUntil(50): now %v armed %v when %v", e.Now(), tm.Armed(), tm.ev.When())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 100 || e.Steps() != 1 {
		t.Fatalf("fired %v in %d steps, want [100] in 1", fired, e.Steps())
	}
}

func TestEventWhenReportsDeferredDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := deferredTimer(t, e, &fired)
	if got := tm.ev.When(); got != 100 {
		t.Fatalf("When() = %v, want the deferred deadline 100", got)
	}
}

func TestCancelDeferredTimerLeavesNothing(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := deferredTimer(t, e, &fired)
	tm.Cancel()
	if tm.Armed() || e.Pending() != 0 || tm.ev.deferred {
		t.Fatalf("after Cancel: armed %v, %d pending, deferral kept %v", tm.Armed(), e.Pending(), tm.ev.deferred)
	}
	e.Run()
	if len(fired) != 0 || e.Steps() != 0 {
		t.Fatalf("canceled timer fired %v (%d steps)", fired, e.Steps())
	}
}

// Package sim provides the deterministic discrete-event simulation engine
// that underpins the all-flash-array model.
//
// The engine maintains a virtual clock and a priority queue of pending
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break), which makes every simulation fully
// deterministic and therefore reproducible: the same seed always yields the
// same latency distributions.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Microseconds reports d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) } //afalint:allow simtime -- the canonical Add: the one sanctioned Time+Time site

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. The zero value is not usable; events are
// created through Engine.At and Engine.After.
type Event struct {
	when     Time
	seq      uint64
	index    int // heap index, -1 when not queued
	fn       func()
	canceled bool
	// pooled marks events created by Schedule/ScheduleAt: their pointers
	// are never handed to callers, so after firing they return to the
	// engine's freelist. At/After events are pinned — callers may retain
	// them for Cancel/Reschedule — and are never recycled.
	pooled bool
	// deferred marks a Timer re-arm to a deadline no earlier than the
	// queued one: the event stays in the heap at its earlier (when, seq)
	// key and takes the reserved key (dWhen, dSeq) when it reaches the
	// head. See Timer.
	deferred bool
	dWhen    Time
	dSeq     uint64
}

// When reports the instant the event is scheduled to fire.
func (e *Event) When() Time {
	if e.deferred {
		return e.dWhen
	}
	return e.when
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// a simulation is a single-threaded, deterministic computation.
type Engine struct {
	now     Time
	queue   []*Event // binary min-heap ordered by (when, seq)
	seq     uint64
	stepped uint64
	stopped bool
	// free recycles fired Schedule/ScheduleAt events. A plain slice, not a
	// sync.Pool: the engine is single-threaded and the determinism contract
	// forbids any scheduler-dependent reuse order.
	free []*Event
}

// initialQueueCap sizes the heap and freelist so steady-state runs never
// grow them: a 64-SSD headline config keeps well under a thousand events
// in flight.
const initialQueueCap = 1024

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{queue: make([]*Event, 0, initialQueueCap)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have fired so far.
func (e *Engine) Steps() uint64 { return e.stepped }

// Pending reports the number of queued events (including canceled ones that
// have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// push enqueues an event, either recycled from the freelist (pooled) or
// freshly allocated (pinned).
func (e *Engine) push(t Time, fn func(), pooled bool) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); pooled && n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{} //afalint:allow hotalloc -- freelist miss or pinned event; pooled events amortize this across reuses
	}
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	ev.canceled = false
	ev.pooled = pooled
	ev.deferred = false
	ev.index = len(e.queue)
	e.seq++
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
	return ev
}

// At schedules fn to run at the absolute instant t. Scheduling in the past
// panics: that is always a model bug. The returned event may be retained
// for Cancel or Reschedule; use ScheduleAt when it won't be.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.push(t, fn, false)
}

// After schedules fn to run d after the current instant. A negative d panics.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.push(e.now.Add(d), fn, false)
}

// Schedule is the fire-and-forget form of After: the event cannot be
// canceled or rescheduled, which lets the engine recycle it after it fires
// instead of allocating a fresh one per call. Per-I/O paths should prefer
// it; the recycling is a plain per-engine freelist, so determinism is
// unaffected.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.push(e.now.Add(d), fn, true)
}

// ScheduleAt is the fire-and-forget form of At.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.push(t, fn, true)
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or been canceled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	e.removeAt(ev.index)
	ev.index = -1
	// Pooled pointers are never handed to callers, so a canceled pooled
	// event can go straight back to the freelist. Pinned events keep fn:
	// Reschedule on a canceled event re-arms with the same callback.
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
}

// Reschedule moves a pending event to a new absolute instant. If the event
// already fired or was canceled, a fresh event is scheduled with the same
// callback.
func (e *Engine) Reschedule(ev *Event, t Time) *Event {
	e.Cancel(ev)
	return e.At(t, ev.fn)
}

// Step fires the next pending event. It reports false when no events remain.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		if e.queue[0].deferred {
			e.rekeyHead()
			continue
		}
		ev := e.popMin()
		if ev.canceled {
			// A pooled tombstone (canceled after Cancel's fast path already
			// ran, or marked directly) is done for good: recycle it here so
			// the closure isn't pinned until the slot's next reuse.
			if ev.pooled {
				ev.fn = nil
				e.free = append(e.free, ev)
			}
			continue
		}
		if ev.when < e.now {
			panic("sim: event queue corrupted (time went backwards)")
		}
		e.now = ev.when
		e.stepped++
		fn := ev.fn
		if ev.pooled {
			ev.fn = nil
			e.free = append(e.free, ev)
		}
		fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled at exactly t do fire.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if next.canceled {
			e.popMin()
			// Same recycle as Step's tombstone drain: this loop discards
			// canceled heads without going through Step.
			if next.pooled {
				next.fn = nil
				e.free = append(e.free, next)
			}
			continue
		}
		if next.when > t {
			break
		}
		if next.deferred {
			// Its real deadline may lie past t: re-key, then look again.
			e.rekeyHead()
			continue
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// rekeyHead applies the head event's deferred re-arm: the event moves to
// the key the re-arm reserved, where an eager re-arm would have put it.
// Nothing fires and no step is counted.
func (e *Engine) rekeyHead() {
	ev := e.queue[0]
	ev.when, ev.seq = ev.dWhen, ev.dSeq
	ev.deferred = false
	e.siftDown(0)
}

// Stop makes the current Run or RunUntil return after the in-flight event
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// Timer is a reusable cancelable event for callers that keep at most one
// deadline outstanding at a time (a CPU's burst completion, a ticker's
// next fire, a coalescer's flush). Re-arming reuses the same Event
// storage forever, so steady-state timer traffic allocates nothing.
// The zero value is not usable; create through Engine.NewTimer.
//
// A re-arm that moves an armed timer later does no heap work: the event
// keeps its queued key and records the new one, reserving the new seq
// exactly as an eager remove-and-push would. When the event reaches the
// head, Step and RunUntil re-key it in place without firing it. This is
// order-exact: every event that precedes the reserved key precedes it
// in both schemes, the reserved key is unique, and no other event's seq
// moves, so the fire order, fire instants and Steps() match an eager
// re-arm. It turns a nohz tick flipping between periods from a heap
// remove plus insert into three field writes.
type Timer struct {
	eng *Engine
	ev  Event
}

// NewTimer returns an unarmed timer bound to the engine.
func (e *Engine) NewTimer() *Timer {
	return &Timer{eng: e, ev: Event{index: -1}}
}

// Armed reports whether the timer is queued to fire.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }

// Arm schedules fn to fire d from now, canceling any previous deadline.
func (t *Timer) Arm(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	t.ArmAt(t.eng.now.Add(d), fn)
}

// ArmAt schedules fn to fire at the absolute instant at, canceling any
// previous deadline.
func (t *Timer) ArmAt(at Time, fn func()) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if t.ev.index >= 0 {
		if at >= t.ev.when {
			t.ev.fn = fn
			t.ev.deferred = true
			t.ev.dWhen = at
			t.ev.dSeq = e.seq
			e.seq++
			return
		}
		e.removeAt(t.ev.index)
	}
	t.ev.deferred = false
	t.ev.when = at
	t.ev.seq = e.seq
	t.ev.fn = fn
	t.ev.canceled = false
	t.ev.index = len(e.queue)
	e.seq++
	e.queue = append(e.queue, &t.ev)
	e.siftUp(len(e.queue) - 1)
}

// Cancel unschedules the pending fire, if any.
func (t *Timer) Cancel() {
	if t.ev.index >= 0 {
		t.eng.removeAt(t.ev.index)
		t.ev.index = -1
		t.ev.fn = nil
		t.ev.deferred = false
	}
}

// The queue is a hand-rolled binary min-heap rather than container/heap:
// the stdlib version pays an interface-dispatch call per compare and swap,
// which profiles as ~30% of a full run. Pop order is a pure function of
// the (when, seq) total order — seq is unique — so the heap's internal
// layout can never change simulation results.

func lessEv(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// siftUp and siftDown move a "hole" through the heap instead of swapping
// pairwise: one pointer write per level instead of three, which matters
// because every write to the []*Event spine pays a GC write barrier.

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !lessEv(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// siftDown restores heap order below i; it reports whether i moved.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		l := q[left]
		if right := left + 1; right < n && lessEv(q[right], l) {
			least = right
			l = q[right]
		}
		if !lessEv(l, ev) {
			break
		}
		q[i] = l
		l.index = i
		i = least
	}
	q[i] = ev
	ev.index = i
	return i > start
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	q := e.queue
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// removeAt removes the event at heap index i (Cancel's fast path, so a
// canceled event costs O(log n) now instead of a dead tombstone later).
func (e *Engine) removeAt(i int) {
	n := len(e.queue) - 1
	if i != n {
		moved := e.queue[n]
		e.queue[n] = nil
		e.queue = e.queue[:n]
		e.queue[i] = moved
		moved.index = i
		if !e.siftDown(i) {
			e.siftUp(i)
		}
		return
	}
	e.queue[n] = nil
	e.queue = e.queue[:n]
}

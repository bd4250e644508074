package sim

// Ticker invokes a callback at a fixed period. Unlike a bare repeating
// event, a Ticker can be retuned (period changed) or stopped, which the
// scheduler uses to model nohz_full switching a CPU between a 1 kHz and a
// 1 Hz tick.
type Ticker struct {
	eng    *Engine
	period Duration
	fn     func(Time)
	fireFn func() // t.fire bound once, so re-arming never allocates
	tm     *Timer
	stop   bool
}

// NewTicker starts a ticker whose first fire is one period from now.
// fn receives the fire time.
func NewTicker(eng *Engine, period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn, tm: eng.NewTimer()}
	t.fireFn = t.fire
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.tm.Arm(t.period, t.fireFn)
}

func (t *Ticker) fire() {
	if t.stop {
		return
	}
	t.fn(t.eng.Now())
	if !t.stop {
		t.arm()
	}
}

// Period reports the current period.
func (t *Ticker) Period() Duration { return t.period }

// SetPeriod changes the period. The next fire is re-anchored one new period
// from now.
func (t *Ticker) SetPeriod(p Duration) {
	if p <= 0 {
		panic("sim: ticker period must be positive")
	}
	if p == t.period {
		return
	}
	t.period = p
	if !t.stop {
		t.arm() // Arm replaces the pending fire; moving it later costs no heap work
	}
}

// Stop cancels the ticker. A stopped ticker never fires again.
func (t *Ticker) Stop() {
	t.stop = true
	t.tm.Cancel()
}

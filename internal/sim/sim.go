// Package sim implements a sequential discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event; callbacks run to
// completion and may schedule further events. All model components (network
// links, CPUs, processes, daemons) share one Engine, which makes the whole
// simulation single-threaded and deterministic: given the same seed and the
// same model, two runs produce bit-identical schedules.
package sim

import (
	"fmt"

	"ampom/internal/eventq"
	"ampom/internal/simtime"
)

// Engine is a discrete-event scheduler. Create one with New.
type Engine struct {
	now     simtime.Time
	queue   eventq.Queue
	running bool
	stopped bool

	// curPushed is the PushedAt of the event currently executing — the
	// instant its scheduling logically happened. The shard barrier reads it
	// to carry one more level of causal history across engines: when two
	// staged events tie on (firing, staging) instants, the sequential
	// engine would have ordered them by when their staging callbacks were
	// themselves scheduled.
	curPushed simtime.Time

	// Processed counts events executed since creation; useful for loop
	// detection in tests and for reporting.
	Processed uint64

	// MaxEvents aborts the run (with a panic describing the leak) when more
	// than this many events execute, guarding against runaway models.
	// Zero means no limit.
	MaxEvents uint64
}

// New returns an Engine with the clock at the epoch.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() simtime.Time { return e.now }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.queue.Len() }

// NextAt returns the firing instant of the earliest pending event, and
// whether one exists. The window scheduler uses it to compute conservative
// horizons without disturbing the queue.
func (e *Engine) NextAt() (simtime.Time, bool) {
	ev, ok := e.queue.Peek()
	return ev.At, ok
}

// AdvanceTo moves the clock forward to t without running anything; instants
// not after the current time are ignored. Run stops advancing when its
// queue drains, so a coordinator driving several engines through shared
// windows uses this to keep the clocks aligned at each window edge.
func (e *Engine) AdvanceTo(t simtime.Time) {
	if t > e.now {
		e.now = t
	}
}

// Interrupted reports whether the most recent Run returned because Stop
// was called (as opposed to draining the queue or reaching the horizon).
func (e *Engine) Interrupted() bool { return e.stopped }

// Schedule runs fn after delay d. A negative delay is treated as zero
// (fire as soon as possible, after already-pending events at the current
// instant). A scheduled event cannot be cancelled; a Ticker can be
// stopped.
func (e *Engine) Schedule(d simtime.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.queue.Push(e.now.Add(d), e.now, fn)
}

// At schedules fn at the absolute instant t. Instants in the past are
// clamped to the current time.
func (e *Engine) At(t simtime.Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.queue.Push(t, e.now, fn)
}

// AtPushed schedules fn at the absolute instant t recording pushedAt — an
// earlier virtual instant at which the scheduling logically happened — as
// its tie-break rank. The shard barrier uses it to inject events staged by
// other engines into the exact slot a sequential push at pushedAt would
// have occupied.
func (e *Engine) AtPushed(t, pushedAt simtime.Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.queue.Push(t, pushedAt, fn)
}

// Stop makes the current Run return after the executing callback finishes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue empties, Stop is called,
// or the next event would fire after the until instant. It returns the
// virtual time at which it stopped. Use simtime.Never to run to quiescence.
func (e *Engine) Run(until simtime.Time) simtime.Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for !e.stopped {
		next, ok := e.queue.Peek()
		if !ok {
			break
		}
		if next.At > until {
			// Do not advance the clock past the horizon.
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.step()
	}
	return e.now
}

// step pops and runs the earliest pending event, advancing the clock to
// its firing instant. It is Run's loop body, and a coordinator
// interleaving several engines at a shared instant calls it directly. The
// caller has checked the queue is non-empty and the event is within its
// horizon.
func (e *Engine) step() {
	ev := e.queue.Pop()
	if ev.At > e.now {
		e.now = ev.At
	}
	e.curPushed = ev.PushedAt
	if ev.Fn != nil {
		ev.Fn()
	}
	e.Processed++
	if e.MaxEvents != 0 && e.Processed > e.MaxEvents {
		panic(fmt.Sprintf("sim: event budget exceeded (%d events, t=%v)", e.Processed, e.now))
	}
}

// RunAll executes events until the queue is empty and returns the final
// virtual time.
func (e *Engine) RunAll() simtime.Time { return e.Run(simtime.Never) }

// Ticker repeatedly invokes a callback at a fixed virtual period until
// stopped. It is the only holder of a cancellation handle: each period
// re-arms the same fire closure, so a running ticker allocates nothing.
type Ticker struct {
	eng    *Engine
	period simtime.Duration
	next   eventq.Handle
	fire   func()
}

// NewTicker creates and starts a ticker with the given period. The first
// tick fires one period from now. A non-positive period panics.
func NewTicker(eng *Engine, period simtime.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{eng: eng, period: period}
	t.fire = func() {
		t.arm()
		fn()
	}
	t.arm()
	return t
}

// arm schedules the next tick one period from now, as Schedule would.
func (t *Ticker) arm() {
	now := t.eng.now
	t.next = t.eng.queue.PushHandle(now.Add(t.period), now, t.fire)
}

// Stop cancels future ticks. The pending tick leaves the queue at once, so
// a drained run ends at the last tick that fired.
func (t *Ticker) Stop() { t.eng.queue.Cancel(t.next) }

package sim

import (
	"testing"

	"ampom/internal/simtime"
)

func TestScheduleAdvancesClock(t *testing.T) {
	e := New()
	var fired simtime.Time
	e.Schedule(5*simtime.Second, func() { fired = e.Now() })
	end := e.RunAll()
	if fired != simtime.Time(5*simtime.Second) {
		t.Fatalf("fired at %v, want 5s", fired)
	}
	if end != fired {
		t.Fatalf("end = %v, want %v", end, fired)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3*simtime.Second, func() { order = append(order, 3) })
	e.Schedule(1*simtime.Second, func() { order = append(order, 1) })
	e.Schedule(2*simtime.Second, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(simtime.Second, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var depth3 simtime.Time
	e.Schedule(simtime.Second, func() {
		e.Schedule(simtime.Second, func() {
			e.Schedule(simtime.Second, func() { depth3 = e.Now() })
		})
	})
	e.RunAll()
	if depth3 != simtime.Time(3*simtime.Second) {
		t.Fatalf("nested event at %v, want 3s", depth3)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(-simtime.Second, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock = %v, want 0", e.Now())
	}
}

func TestAtClampsPast(t *testing.T) {
	e := New()
	e.Schedule(2*simtime.Second, func() {
		e.At(simtime.Time(simtime.Second), func() {
			if e.Now() != simtime.Time(2*simtime.Second) {
				t.Errorf("past-scheduled event at %v, want clamped to 2s", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestRunUntilHorizon(t *testing.T) {
	e := New()
	var fired []simtime.Time
	for i := 1; i <= 5; i++ {
		d := simtime.Duration(i) * simtime.Second
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	end := e.Run(simtime.Time(3 * simtime.Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3", len(fired))
	}
	if end != simtime.Time(3*simtime.Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunAll()
	if len(fired) != 5 {
		t.Fatalf("fired %d total, want 5", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(simtime.Duration(i)*simtime.Second, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 4 {
		t.Fatalf("processed %d events, want 4 (Stop ignored?)", count)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

// TestCancel stops a ticker from outside its callback: the pending tick
// leaves the queue at once, so a drained run neither fires it nor counts
// it, and ends at the last event that did fire.
func TestCancel(t *testing.T) {
	e := New()
	ticks := 0
	tk := NewTicker(e, simtime.Second, func() { ticks++ })
	e.Schedule(2500*simtime.Millisecond, tk.Stop)
	end := e.RunAll()
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2 (stop at 2.5s)", ticks)
	}
	if e.Pending() != 0 || e.Processed != 3 {
		t.Fatalf("pending = %d, processed = %d; want 0 and 3", e.Pending(), e.Processed)
	}
	if end != simtime.Time(2500*simtime.Millisecond) {
		t.Fatalf("end = %v, want 2.5s", end)
	}
	tk.Stop() // a second Stop holds a stale handle and is a no-op
}

func TestReentrantRunPanics(t *testing.T) {
	e := New()
	e.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.RunAll()
	})
	e.RunAll()
}

func TestMaxEventsGuard(t *testing.T) {
	e := New()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.Schedule(simtime.Second, loop) }
	e.Schedule(simtime.Second, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip MaxEvents")
		}
	}()
	e.RunAll()
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(simtime.Second, func() {})
	}
	e.RunAll()
	if e.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed)
	}
}

func TestRunHorizonAdvancesClockWithoutEvents(t *testing.T) {
	e := New()
	end := e.Run(simtime.Time(10 * simtime.Second))
	// No events: Run drains immediately and the clock stays at 0 (nothing
	// forced it forward), since quiescence ends the run.
	if end != 0 {
		t.Fatalf("end = %v, want 0 for empty queue", end)
	}
	e.Schedule(20*simtime.Second, func() {})
	end = e.Run(simtime.Time(10 * simtime.Second))
	if end != simtime.Time(10*simtime.Second) {
		t.Fatalf("end = %v, want horizon 10s", end)
	}
	if e.Pending() != 1 {
		t.Fatal("event beyond horizon should stay pending")
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []simtime.Time
	var tk *Ticker
	tk = NewTicker(e, simtime.Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.RunAll()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3", ticks)
	}
	for i, at := range ticks {
		want := simtime.Time(simtime.Duration(i+1) * simtime.Second)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

// TestTickerRearmAllocFree: a running ticker re-arms with the closure
// NewTicker built, so a period allocates nothing.
func TestTickerRearmAllocFree(t *testing.T) {
	e := New()
	NewTicker(e, simtime.Second, func() {})
	e.Run(simtime.Time(simtime.Second)) // grow the queue once
	if a := testing.AllocsPerRun(100, func() {
		e.Run(e.Now().Add(simtime.Second))
	}); a != 0 {
		t.Fatalf("a ticker period allocates %v times", a)
	}
	if e.Processed != 102 {
		t.Fatalf("processed = %d, want 102 (one tick per period)", e.Processed)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	NewTicker(New(), 0, func() {})
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []simtime.Time {
		e := New()
		var log []simtime.Time
		var recurse func(depth int)
		recurse = func(depth int) {
			log = append(log, e.Now())
			if depth < 50 {
				e.Schedule(simtime.Duration(depth+1)*simtime.Millisecond, func() { recurse(depth + 1) })
				e.Schedule(simtime.Duration(depth+2)*simtime.Millisecond, func() { log = append(log, e.Now()) })
			}
		}
		e.Schedule(0, func() { recurse(0) })
		e.RunAll()
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

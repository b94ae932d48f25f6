package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"ampom/internal/simtime"
)

// seqOf returns an event's insertion sequence number.
func seqOf(e Event) uint64 { return e.key >> slotBits }

func TestPopOrder(t *testing.T) {
	var q Queue
	times := []simtime.Time{5, 1, 3, 2, 4}
	for _, at := range times {
		q.Push(at, 0, func() {})
	}
	for want := simtime.Time(1); want <= 5; want++ {
		if e := q.Pop(); e.At != want {
			t.Fatalf("pop.At = %v, want %v", e.At, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after draining, want 0", q.Len())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Push(7, 0, func() { order = append(order, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue reported an event")
	}
	q.Push(9, 0, func() {})
	q.Push(2, 0, func() {})
	if got, ok := q.Peek(); !ok || got.At != 2 || seqOf(got) != 1 {
		t.Fatalf("peek = (at=%v seq=%d ok=%v), want the earliest (at=2 seq=1)", got.At, seqOf(got), ok)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2 (peek must not remove)", q.Len())
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	q.Push(1, 0, func() {})
	b := q.PushHandle(2, 0, func() {})
	q.Push(3, 0, func() {})
	if !q.Cancel(b) {
		t.Fatal("cancel of pending event returned false")
	}
	if q.Cancel(b) {
		t.Fatal("second cancel returned true")
	}
	if got := q.Pop(); got.At != 1 {
		t.Fatalf("pop.At = %v, want 1", got.At)
	}
	if got := q.Pop(); got.At != 3 {
		t.Fatalf("pop.At = %v, want 3", got.At)
	}
	if q.Cancel(Handle{}) {
		t.Fatal("cancel of the zero handle returned true")
	}
}

// TestHandleStates pins the handle's life: a pending event's handle
// cancels it once; a popped event's handle, a cancelled event's handle
// and a handle whose slot a newer handle reuses are all refused, and
// none of the refused cancels touches a pending event.
func TestHandleStates(t *testing.T) {
	var q Queue
	fired := q.PushHandle(1, 0, func() {})
	cancelled := q.PushHandle(2, 0, func() {})
	pending := q.PushHandle(3, 0, func() {})

	got := q.Pop()
	if got.At != 1 || got.Fn == nil {
		t.Fatalf("pop = (at=%v fn set=%v), want the first event with its callback", got.At, got.Fn != nil)
	}
	if q.Cancel(fired) {
		t.Fatal("handle of a popped event cancelled something")
	}
	if !q.Cancel(cancelled) {
		t.Fatal("handle of a pending event was refused")
	}
	if q.Cancel(cancelled) {
		t.Fatal("handle of a cancelled event cancelled something")
	}

	// Both released slots are reused; the stale handles must not reach
	// the events now occupying them.
	reuse1 := q.PushHandle(4, 0, func() {})
	reuse2 := q.PushHandle(5, 0, func() {})
	if reuse1.slot != cancelled.slot && reuse1.slot != fired.slot {
		t.Fatalf("new handle took fresh slot %d; want a released one (%d or %d)", reuse1.slot, fired.slot, cancelled.slot)
	}
	if q.Cancel(fired) || q.Cancel(cancelled) {
		t.Fatal("a stale handle cancelled the event reusing its slot")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
	for _, h := range []Handle{reuse2, pending, reuse1} {
		if !q.Cancel(h) {
			t.Fatalf("live handle %+v refused", h)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after cancelling every live handle, want 0", q.Len())
	}
}

func TestCancelHead(t *testing.T) {
	var q Queue
	head := q.PushHandle(1, 0, func() {})
	q.Push(2, 0, func() {})
	q.Push(3, 0, func() {})
	q.Cancel(head)
	if got := q.Pop(); got.At != 2 {
		t.Fatalf("after cancelling head, pop.At = %v, want 2", got.At)
	}
}

func TestCancelLast(t *testing.T) {
	var q Queue
	q.Push(1, 0, func() {})
	last := q.PushHandle(2, 0, func() {})
	q.Cancel(last)
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

// TestPopZeroesVacatedSlot: the record a pop or cancel vacates holds no
// closure, so the callback can be collected.
func TestPopZeroesVacatedSlot(t *testing.T) {
	var q Queue
	q.Push(1, 0, func() {})
	h := q.PushHandle(2, 0, func() {})
	q.Pop()
	if q.heap[:2][1].Fn != nil {
		t.Fatal("pop left a closure in the vacated slot")
	}
	q.Cancel(h)
	if q.heap[:1][0].Fn != nil {
		t.Fatal("cancel left a closure in the vacated slot")
	}
}

func TestLen(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		q.Push(simtime.Time(i), 0, func() {})
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 40; i++ {
		q.Pop()
	}
	if q.Len() != 60 {
		t.Fatalf("len after pops = %d", q.Len())
	}
}

// TestQueueSteadyStateAllocFree: once the slice has grown, a Pop plus a
// Push at a steady depth allocates nothing, and neither does cancelling
// and re-pushing a handle entry.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	var q Queue
	nop := func() {}
	const depth, far = 256, 1 << 50
	for i := 0; i < depth; i++ {
		q.Push(simtime.Time(i*7919%depth), 0, nop)
	}
	h := q.PushHandle(far, 0, nop)
	if a := testing.AllocsPerRun(1000, func() {
		e := q.Pop()
		q.Push(e.At+depth, e.At, nop)
	}); a != 0 {
		t.Fatalf("steady-state pop+push allocates %v times per run", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if !q.Cancel(h) {
			t.Fatal("live handle refused")
		}
		h = q.PushHandle(far, 0, nop)
	}); a != 0 {
		t.Fatalf("steady-state cancel+handle push allocates %v times per run", a)
	}
	if q.Len() != depth+1 {
		t.Fatalf("len = %d, want %d", q.Len(), depth+1)
	}
}

// TestPopsSortedProperty: any multiset of times pops in non-decreasing
// order, with ties in insertion order.
func TestPopsSortedProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var q Queue
		for _, r := range raw {
			q.Push(simtime.Time(r%1000), 0, func() {})
		}
		var prevAt simtime.Time = -1
		var prevSeq uint64
		for q.Len() > 0 {
			e := q.Pop()
			if e.At < prevAt {
				return false
			}
			if e.At == prevAt && seqOf(e) < prevSeq {
				return false
			}
			prevAt, prevSeq = e.At, seqOf(e)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRandomProperty: cancelling an arbitrary subset leaves exactly
// the survivors, still sorted.
func TestCancelRandomProperty(t *testing.T) {
	f := func(raw []uint16, mask uint64) bool {
		var q Queue
		var handles []Handle
		for _, r := range raw {
			handles = append(handles, q.PushHandle(simtime.Time(r), 0, func() {}))
		}
		var survivors []simtime.Time
		for i, h := range handles {
			if mask&(1<<(uint(i)%64)) != 0 && i%3 == 0 {
				q.Cancel(h)
			} else {
				survivors = append(survivors, simtime.Time(raw[i]))
			}
		}
		sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
		for _, want := range survivors {
			if q.Len() == 0 || q.Pop().At != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

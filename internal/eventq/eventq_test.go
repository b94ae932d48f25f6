package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"ampom/internal/simtime"
)

// seqOf returns an event's insertion sequence number.
func seqOf(e Event) uint64 { return e.seq }

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
	b := q.Push(2, 0, func() {})
	q.Push(3, 0, func() {})
	if !q.Remove(b) {
		t.Fatal("remove of pending event returned false")
	}
	if q.Remove(b) {
		t.Fatal("second remove returned true")
	}
	if got := q.Pop(); got.At != 1 {
		t.Fatalf("pop.At = %v, want 1", got.At)
	}
	if got := q.Pop(); got.At != 3 {
		t.Fatalf("pop.At = %v, want 3", got.At)
	}
}

// TestRemoveStates pins a sequence number's life: a pending event's
// number removes it once; a popped event's number, a removed event's
// number and a number no push returned are all refused, none of the
// refused removes touches a pending event, and later pushes never take a
// number back.
func TestRemoveStates(t *testing.T) {
	var q Queue
	fired := q.Push(1, 0, func() {})
	removed := q.Push(2, 0, func() {})
	pending := q.Push(3, 0, func() {})

	got := q.Pop()
	if got.At != 1 || got.Fn == nil || seqOf(got) != fired {
		t.Fatalf("pop = (at=%v seq=%d fn set=%v), want the first event (seq %d) with its callback", got.At, seqOf(got), got.Fn != nil, fired)
	}
	if q.Remove(fired) {
		t.Fatal("number of a popped event removed something")
	}
	if !q.Remove(removed) {
		t.Fatal("number of a pending event was refused")
	}
	if q.Remove(removed) {
		t.Fatal("number of a removed event removed something")
	}
	if q.Remove(pending + 1) {
		t.Fatal("a number no push returned removed something")
	}

	// Later pushes take fresh numbers; the stale ones must not reach them.
	later1 := q.Push(4, 0, func() {})
	later2 := q.Push(5, 0, func() {})
	for _, n := range []uint64{later1, later2} {
		if n == fired || n == removed || n == pending {
			t.Fatalf("push reused sequence number %d", n)
		}
	}
	if q.Remove(fired) || q.Remove(removed) {
		t.Fatal("a stale number removed a later event")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
	for _, n := range []uint64{later2, pending, later1} {
		if !q.Remove(n) {
			t.Fatalf("pending number %d refused", n)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after removing every pending event, want 0", q.Len())
	}
}

func TestCancelHead(t *testing.T) {
	var q Queue
	head := q.Push(1, 0, func() {})
	q.Push(2, 0, func() {})
	q.Push(3, 0, func() {})
	q.Remove(head)
	if got := q.Pop(); got.At != 2 {
		t.Fatalf("after removing head, pop.At = %v, want 2", got.At)
	}
}

func TestCancelLast(t *testing.T) {
	var q Queue
	q.Push(1, 0, func() {})
	last := q.Push(2, 0, func() {})
	q.Remove(last)
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

// TestPopZeroesVacatedSlot: the record a pop or remove vacates holds no
// closure, so the callback can be collected.
func TestPopZeroesVacatedSlot(t *testing.T) {
	var q Queue
	q.Push(1, 0, func() {})
	n := q.Push(2, 0, func() {})
	q.Pop()
	if q.heap[:2][1].Fn != nil {
		t.Fatal("pop left a closure in the vacated slot")
	}
	q.Remove(n)
	if q.heap[:1][0].Fn != nil {
		t.Fatal("remove left a closure in the vacated slot")
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
// Push at a steady depth allocates nothing, and neither does removing an
// event and pushing it again, as a stopped and restarted ticker does.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	var q Queue
	nop := func() {}
	const depth, far = 256, 1 << 50
	for i := 0; i < depth; i++ {
		q.Push(simtime.Time(i*7919%depth), 0, nop)
	}
	n := q.Push(far, 0, nop)
	if a := testing.AllocsPerRun(1000, func() {
		e := q.Pop()
		q.Push(e.At+depth, e.At, nop)
	}); a != 0 {
		t.Fatalf("steady-state pop+push allocates %v times per run", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if !q.Remove(n) {
			t.Fatal("pending number refused")
		}
		n = q.Push(far, 0, nop)
	}); a != 0 {
		t.Fatalf("steady-state remove+push allocates %v times per run", a)
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

// TestCancelRandomProperty: removing an arbitrary subset leaves exactly
// the survivors, still sorted.
func TestCancelRandomProperty(t *testing.T) {
	f := func(raw []uint16, mask uint64) bool {
		var q Queue
		var seqs []uint64
		for _, r := range raw {
			seqs = append(seqs, q.Push(simtime.Time(r), 0, func() {}))
		}
		var survivors []simtime.Time
		for i, n := range seqs {
			if mask&(1<<(uint(i)%64)) != 0 && i%3 == 0 {
				q.Remove(n)
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

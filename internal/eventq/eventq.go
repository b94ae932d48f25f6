// Package eventq implements the pending-event set of the discrete-event
// simulator: a binary min-heap of event records, held by value in one
// slice, ordered by firing time, then by the virtual instant the event was
// scheduled at, then by a monotonically increasing sequence number, so
// that events scheduled earlier fire earlier. In a single-engine run the
// scheduling instant never decreases between pushes, which makes
// (At, PushedAt, seq) the same total order as (At, seq) — but a sharded
// run injects events pushed by other engines after the fact, and PushedAt
// is what lets those merge into the exact slot the sequential schedule
// would have given them. Stable tie-breaking is what makes simulations
// deterministic.
//
// Push allocates nothing once the slice has grown. An event that may have
// to be cancelled is pushed with PushHandle, which returns a
// generation-checked Handle; only those events keep a side-table slot
// pointed at their heap position as the heap moves them.
package eventq

import "ampom/internal/simtime"

// Event is a scheduled callback: one heap record, held by value.
type Event struct {
	At       simtime.Time // firing instant
	PushedAt simtime.Time // virtual instant the push happened; breaks At ties
	key      uint64       // insertion order and handle slot; breaks (At, PushedAt) ties
	Fn       func()       // callback
}

// An event's key is seq<<slotBits | slot: its insertion sequence number,
// then the 1-based side-table slot of an event pushed with a handle, or 0.
// Sequence numbers are unique, so ordering by key is insertion order.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// Handle names an event pushed with PushHandle so that Cancel can remove
// it. It goes stale once the event fires or is cancelled, and a stale
// handle never cancels anything, even after its slot is reused. The zero
// Handle names no event.
type Handle struct {
	slot uint32 // 1-based side-table index; 0 names no event
	gen  uint32
}

// slot is one side-table entry: the heap position of the event a handle
// names, and the generation that handle must carry.
type slot struct {
	pos int32
	gen uint32
}

// Queue is a time-ordered event set. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulation engine owns it.
type Queue struct {
	heap  []Event
	seq   uint64
	slots []slot
	free  []uint32 // released slot numbers, reused last-in first-out
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn to fire at instant at. pushedAt is the virtual instant
// the scheduling happens at (the engine clock of the pusher); it orders
// coincident firings ahead of the insertion sequence.
func (q *Queue) Push(at, pushedAt simtime.Time, fn func()) { q.push(at, pushedAt, fn, 0) }

// PushHandle is Push for an event that may be cancelled: it returns the
// handle to pass to Cancel.
func (q *Queue) PushHandle(at, pushedAt simtime.Time, fn func()) Handle {
	var n uint32
	if k := len(q.free); k > 0 {
		n = q.free[k-1]
		q.free = q.free[:k-1]
	} else {
		if len(q.slots) == slotMask {
			panic("eventq: too many pending handles")
		}
		q.slots = append(q.slots, slot{gen: 1})
		n = uint32(len(q.slots))
	}
	q.push(at, pushedAt, fn, n)
	return Handle{slot: n, gen: q.slots[n-1].gen}
}

func (q *Queue) push(at, pushedAt simtime.Time, fn func(), n uint32) {
	if q.seq == maxSeq {
		panic("eventq: sequence numbers exhausted")
	}
	e := Event{At: at, PushedAt: pushedAt, key: q.seq<<slotBits | uint64(n), Fn: fn}
	q.seq++
	q.heap = append(q.heap, Event{})
	q.up(len(q.heap)-1, e)
}

// Peek returns the earliest pending event without removing it, and whether
// there is one.
func (q *Queue) Peek() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	return q.heap[0], true
}

// Pop removes and returns the earliest pending event. The queue must not
// be empty.
func (q *Queue) Pop() Event {
	top := q.heap[0]
	q.removeAt(0)
	if n := uint32(top.key & slotMask); n != 0 {
		q.release(n)
	}
	return top
}

// Cancel removes the pending event h names so it will never fire, and
// reports whether it did. A stale or zero handle — its event already
// fired or was cancelled — is refused.
func (q *Queue) Cancel(h Handle) bool {
	if h.slot == 0 || int(h.slot) > len(q.slots) || q.slots[h.slot-1].gen != h.gen {
		return false
	}
	q.removeAt(int(q.slots[h.slot-1].pos))
	q.release(h.slot)
	return true
}

// removeAt deletes the record at heap index i, refilling the hole with the
// last record and zeroing the vacated slot so its closure can be collected.
func (q *Queue) removeAt(i int) {
	last := len(q.heap) - 1
	tail := q.heap[last]
	q.heap[last] = Event{}
	q.heap = q.heap[:last]
	if i == last {
		return
	}
	if i > 0 && less(&tail, &q.heap[(i-1)/2]) {
		q.up(i, tail)
	} else {
		q.down(i, tail)
	}
}

// release retires slot n: bumping its generation makes every handle to it
// stale.
func (q *Queue) release(n uint32) {
	q.slots[n-1].gen++
	q.free = append(q.free, n)
}

// less orders records by firing time, then by scheduling instant, then by
// insertion sequence.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.PushedAt != b.PushedAt {
		return a.PushedAt < b.PushedAt
	}
	return a.key < b.key
}

// place stores e at heap index i and, if e holds a handle slot, points the
// slot at it.
func (q *Queue) place(i int, e Event) {
	q.heap[i] = e
	if n := e.key & slotMask; n != 0 {
		q.slots[n-1].pos = int32(i)
	}
}

// up sifts e from the hole at index i towards the root.
func (q *Queue) up(i int, e Event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&e, &q.heap[parent]) {
			break
		}
		q.place(i, q.heap[parent])
		i = parent
	}
	q.place(i, e)
}

// down sifts e from the hole at index i towards the leaves.
func (q *Queue) down(i int, e Event) {
	n := len(q.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && less(&q.heap[right], &q.heap[child]) {
			child = right
		}
		if !less(&q.heap[child], &e) {
			break
		}
		q.place(i, q.heap[child])
		i = child
	}
	q.place(i, e)
}

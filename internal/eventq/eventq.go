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
// Push allocates nothing once the slice has grown, and returns the
// event's sequence number. Sequence numbers are never reused, so the
// number names its event for good: Remove takes it to cancel that event,
// and refuses it once the event has fired or been removed. Remove scans
// the heap; cancellation is rare (a stopped ticker), so no side table
// tracks where the heap moves each event.
package eventq

import "ampom/internal/simtime"

// Event is a scheduled callback: one heap record, held by value.
type Event struct {
	At       simtime.Time // firing instant
	PushedAt simtime.Time // virtual instant the push happened; breaks At ties
	seq      uint64       // insertion order; breaks (At, PushedAt) ties
	Fn       func()       // callback
}

// Queue is a time-ordered event set. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulation engine owns it.
type Queue struct {
	heap []Event
	seq  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn to fire at instant at and returns the event's sequence
// number, the name Remove takes. pushedAt is the virtual instant the
// scheduling happens at (the engine clock of the pusher); it orders
// coincident firings ahead of the insertion sequence.
func (q *Queue) Push(at, pushedAt simtime.Time, fn func()) uint64 {
	seq := q.seq
	q.seq++
	q.heap = append(q.heap, Event{})
	q.up(len(q.heap)-1, Event{At: at, PushedAt: pushedAt, seq: seq, Fn: fn})
	return seq
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
	return top
}

// Remove removes the pending event Push numbered seq so it will never
// fire, and reports whether it did. A number whose event already fired or
// was removed, or that no push returned, is refused.
func (q *Queue) Remove(seq uint64) bool {
	for i := range q.heap {
		if q.heap[i].seq == seq {
			q.removeAt(i)
			return true
		}
	}
	return false
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

// less orders records by firing time, then by scheduling instant, then by
// insertion sequence.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.PushedAt != b.PushedAt {
		return a.PushedAt < b.PushedAt
	}
	return a.seq < b.seq
}

// up sifts e from the hole at index i towards the root.
func (q *Queue) up(i int, e Event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&e, &q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
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
		q.heap[i] = q.heap[child]
		i = child
	}
	q.heap[i] = e
}

package eventq

import (
	"container/heap"
	"testing"

	"ampom/internal/simtime"
)

// refEvent mirrors Event inside the container/heap reference model.
type refEvent struct {
	at       simtime.Time
	pushedAt simtime.Time
	seq      uint64
	index    int // heap index, -1 once removed
}

// refHeap is the trusted oracle: the standard library's heap over the same
// (At, PushedAt, seq) order the queue promises.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].pushedAt != h[j].pushedAt {
		return h[i].pushedAt < h[j].pushedAt
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// FuzzQueueVsHeap drives an interleaved Push/Pop/Cancel schedule against
// both the queue and the container/heap reference and fails on any
// divergence in lengths, pop order or cancel outcomes. The byte stream is
// consumed three bytes per operation: opcode, then two operands (firing
// time and scheduling instant for pushes — deliberately unordered, the
// queue is a plain priority set — or a push selector for cancels). Odd
// pushes take a handle and even ones do not; cancelling through a plain
// push's zero Handle must be refused, and so must a stale handle: one
// whose event was popped or cancelled, even after a newer handle reuses
// its slot.
func FuzzQueueVsHeap(f *testing.F) {
	// Pops interleaved with pushes.
	f.Add([]byte{0, 5, 0, 0, 3, 0, 2, 0, 0, 0, 1, 0, 2, 0, 0, 2, 0, 0})
	// Cancel of the last heap element: push 1 (handle) sits at the tail.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 3, 0, 1, 2, 0, 0})
	// Cancel of the head while later, larger elements must sift down.
	f.Add([]byte{0, 9, 0, 0, 1, 0, 0, 8, 0, 0, 7, 0, 3, 0, 1, 2, 0, 0, 2, 0, 0})
	// Cancels through a plain push's zero Handle, before and after its
	// pop: all refused.
	f.Add([]byte{0, 4, 0, 3, 0, 0, 3, 0, 0, 0, 2, 0, 2, 0, 0, 3, 0, 0})
	// Stale after pop: push 1 (handle) fires first, then its handle is
	// used.
	f.Add([]byte{0, 9, 0, 1, 1, 0, 2, 0, 0, 3, 0, 1, 3, 0, 1})
	// Stale after cancel: push 1 (handle) is cancelled twice.
	f.Add([]byte{0, 9, 0, 1, 5, 0, 0, 7, 0, 3, 0, 1, 3, 0, 1, 2, 0, 0})
	// Stale after reuse: push 1 (handle) is cancelled, push 3 (handle)
	// takes its slot, then push 1's handle must not reach push 3.
	f.Add([]byte{0, 9, 0, 1, 5, 0, 3, 0, 1, 0, 8, 0, 1, 6, 0, 3, 0, 1, 2, 0, 0, 3, 0, 3, 2, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			q       Queue
			ref     refHeap
			handles []Handle    // every push's handle, zero for plain pushes
			refs    []*refEvent // the reference twin of each push
			seq     uint64
		)
		for len(data) >= 3 {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			switch op % 4 {
			case 0, 1: // push — weighted so schedules actually grow
				at := simtime.Time(a % 64)
				pushedAt := simtime.Time(b % 16) // coarse, to force At+PushedAt ties
				r := &refEvent{at: at, pushedAt: pushedAt, seq: seq}
				seq++
				var h Handle
				if len(refs)%2 == 1 {
					h = q.PushHandle(at, pushedAt, func() {})
				} else {
					q.Push(at, pushedAt, func() {})
				}
				handles = append(handles, h)
				heap.Push(&ref, r)
				refs = append(refs, r)
			case 2: // pop
				if q.Len() == 0 || len(ref) == 0 {
					continue // the length check below catches a mismatch
				}
				got := q.Pop()
				want := heap.Pop(&ref).(*refEvent)
				if got.At != want.at || got.PushedAt != want.pushedAt || seqOf(got) != want.seq {
					t.Fatalf("pop: queue (at=%v pushedAt=%v seq=%d), reference (at=%v pushedAt=%v seq=%d)",
						got.At, got.PushedAt, seqOf(got), want.at, want.pushedAt, want.seq)
				}
			case 3: // cancel an arbitrary past push (possibly already gone)
				if len(handles) == 0 {
					if q.Cancel(Handle{}) {
						t.Fatal("Cancel of the zero Handle returned true")
					}
					continue
				}
				i := (int(a)<<8 | int(b)) % len(handles)
				r := refs[i]
				got := q.Cancel(handles[i])
				want := i%2 == 1 && r.index >= 0
				if want {
					heap.Remove(&ref, r.index)
					r.index = -1
				}
				if got != want {
					t.Fatalf("cancel push %d: queue=%v, reference=%v", i, got, want)
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("len: queue=%d, reference=%d", q.Len(), len(ref))
			}
		}
		// Drain both; the tails must agree element for element.
		for len(ref) > 0 {
			got := q.Pop()
			want := heap.Pop(&ref).(*refEvent)
			if got.At != want.at || got.PushedAt != want.pushedAt || seqOf(got) != want.seq {
				t.Fatalf("drain: queue (at=%v pushedAt=%v seq=%d), reference (at=%v pushedAt=%v seq=%d)",
					got.At, got.PushedAt, seqOf(got), want.at, want.pushedAt, want.seq)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("drain: queue has %d events left, reference empty", q.Len())
		}
	})
}

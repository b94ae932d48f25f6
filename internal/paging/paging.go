// Package paging implements the remote paging support of paper §2.2: the
// wire protocol between a migrant and the deputy process left at its origin
// node, the deputy itself, and the migrant-side pager that tracks page
// residency, batches prefetch requests, and accounts every statistic the
// evaluation figures need.
//
// Protocol: the migrant sends one PageRequest per fault-time analysis,
// carrying an optional demand page and the dependent-zone pages to
// prefetch. The deputy replies with one PageReply message per page —
// demand page first — so replies stream back-to-back down the link and the
// round-trip latency is paid once per batch (the pipelining effect of
// §5.4).
//
// Tables: §2.2's home page table (HPT) is the deputy's stored set, the
// pages the origin still holds. Serving a page deletes the origin copy by
// taking it out of that set, so a page is served at most once and a
// request for a page already gone is skipped. The master page table (MPT)
// is the migrant's memory.AddressSpace residency, which the pager moves
// from remote through in flight and arrived to resident; the freeze
// prices its shipping and install (memory.PTEntrySize,
// cluster.MPTEntryCPU).
//
// Records: a round trip allocates nothing once the pools have grown to the
// largest number of requests in flight at once.
//
//   - A *PageRequest is owned by the Pager that sent it. Request takes it
//     from the pager's free list and sends the pointer as the message
//     payload. The deputy copies the pages out the moment the request
//     arrives and hands the record straight back to that free list, so a
//     request record lives exactly as long as its message is on the wire.
//   - A serveJob is owned by the Deputy. Arrival fills one from the
//     deputy's pool with the request's pages; the job waits out the
//     request's service cost, or parks behind the SetAvailableAfter gate,
//     and goes back to the pool when serve has sent its pages. Service is
//     not FIFO: a request is served at its arrival plus a cost that grows
//     with its page count, so a short request can finish before a longer
//     one that arrived first. The jobs are therefore independent records,
//     each with a callback built once when the record is created, not a
//     queue.
//   - A PageReply travels as the deputy's reply FIFO: serve pushes each
//     page onto it and sends a pointer to it as the payload, and the pager
//     pops one page per delivered message. That is sound because the
//     replies are the only messages carrying the FIFO and every link
//     direction delivers in send order (netmodel panics otherwise), so the
//     n-th reply delivered is the n-th page pushed. An empty FIFO at a
//     delivery is a mis-wired model and panics.
package paging

import (
	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// NoDemand marks a PageRequest that carries only prefetches.
const NoDemand = memory.PageNum(-1)

// Wire sizing. Page identifiers travel as 6-byte table entries, matching
// the MPT entry size.
const (
	ReqHeaderBytes  = 64
	ReqPerPageBytes = 6
	ReplyOverhead   = 64
)

// PageRequest asks the deputy for pages. Demand is the faulted page the
// migrant is stalled on (NoDemand if none); Prefetch lists dependent-zone
// pages wanted ahead of use.
type PageRequest struct {
	Demand   memory.PageNum
	Prefetch []memory.PageNum

	// sender is the pager whose free list the record returns to once the
	// deputy has copied its pages out.
	sender *Pager
}

// WireSize returns the request's bytes on the wire.
func (r PageRequest) WireSize() int64 {
	n := int64(len(r.Prefetch))
	if r.Demand != NoDemand {
		n++
	}
	return ReqHeaderBytes + n*ReqPerPageBytes
}

// PageReply carries one page of data to the migrant.
type PageReply struct {
	Page memory.PageNum
}

// WireSize returns the reply's bytes on the wire.
func (r PageReply) WireSize() int64 { return memory.PageSize + ReplyOverhead }

// replyFIFO is the deputy's queue of pages sent and not yet delivered,
// oldest at head; its length is a power of two.
type replyFIFO struct {
	ring    []memory.PageNum
	head, n int
}

// push appends page at the back, doubling the ring when it is full.
func (f *replyFIFO) push(page memory.PageNum) {
	if f.n == len(f.ring) {
		grown := make([]memory.PageNum, max(8, 2*len(f.ring)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.ring[(f.head+i)&(len(f.ring)-1)]
		}
		f.ring, f.head = grown, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = page
	f.n++
}

// pop removes and returns the oldest page.
func (f *replyFIFO) pop() memory.PageNum {
	if f.n == 0 {
		panic("paging: page reply delivered from an empty reply FIFO")
	}
	page := f.ring[f.head]
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	return page
}

// The deputy's CPU costs, calibrated for the paper's 2 GHz Pentium 4.
const (
	// serveBase is charged once per request (wakeup, request parse).
	serveBase = 25 * simtime.Microsecond
	// servePerPage is charged per page looked up and queued.
	servePerPage = 2 * simtime.Microsecond
)

// DeputyStats counts the deputy's served traffic.
type DeputyStats struct {
	DemandServed   int64 // demand pages sent
	PrefetchServed int64 // prefetch pages sent
}

// Deputy is the origin-side stub process: after migration it "only answers
// remote paging requests and executes system calls on behalf of the
// migrant" (§2.2). It owns the HPT: stored, the pages the origin still
// holds.
//
// A Deputy also models the *file server* of Roush's original Freeze Free
// Algorithm: with SetAvailableAfter, page service is gated until the
// origin's dirty-page flush has landed (paper Figure 2, middle).
type Deputy struct {
	node   *cluster.Node
	link   *netmodel.Link
	stored memory.PageSet

	availableAfter simtime.Time
	gated          []*serveJob // parked until the backing store is ready

	jobs    []*serveJob // free service records
	replies replyFIFO   // pages sent and not yet delivered

	Stats DeputyStats
}

// serveJob is one arrived request waiting to be served: its pages, demand
// page first, and the callback that serves them, built once per record.
type serveJob struct {
	pages  []memory.PageNum
	demand memory.PageNum
	run    func()
}

// SetAvailableAfter gates page service until instant t: requests arriving
// earlier are parked and drained once the store holds the pages. Passing
// the current time (or any past instant) releases parked requests
// immediately.
func (d *Deputy) SetAvailableAfter(t simtime.Time) {
	d.availableAfter = t
	if d.node.Eng.Now() < t {
		return
	}
	for _, j := range d.gated {
		d.schedule(j)
	}
	d.gated = d.gated[:0]
}

// NewDeputy installs a deputy on node serving pages across link from
// stored, which it owns from then on. It registers itself as a payload
// handler.
func NewDeputy(node *cluster.Node, link *netmodel.Link, stored memory.PageSet) *Deputy {
	d := &Deputy{node: node, link: link, stored: stored}
	node.Handle(d.handle)
	return d
}

func (d *Deputy) handle(payload any) bool {
	req, ok := payload.(*PageRequest)
	if !ok {
		return false
	}

	// The demand page is served first — the migrant is stalled on it — and
	// the dependent zone streams behind it.
	j := d.job()
	j.demand = req.Demand
	if j.demand != NoDemand {
		j.pages = append(j.pages, j.demand)
	}
	j.pages = append(j.pages, req.Prefetch...)
	req.sender.recycle(req)

	if d.node.Eng.Now() < d.availableAfter {
		d.gated = append(d.gated, j)
		return true
	}
	d.schedule(j)
	return true
}

// job takes an empty service record from the pool, building one (and its
// callback) when the pool is dry.
func (d *Deputy) job() *serveJob {
	if n := len(d.jobs); n > 0 {
		j := d.jobs[n-1]
		d.jobs = d.jobs[:n-1]
		return j
	}
	j := &serveJob{}
	j.run = func() { d.serve(j) }
	return j
}

// schedule charges j's service cost and serves it when that has elapsed.
func (d *Deputy) schedule(j *serveJob) {
	cost := d.node.Scale(serveBase + servePerPage*simtime.Duration(len(j.pages)))
	d.node.Eng.Schedule(cost, j.run)
}

// serve sends j's pages, counting the one equal to its demand (NoDemand
// matches none) as demand-served and the rest as prefetched, then returns
// j to the pool.
func (d *Deputy) serve(j *serveJob) {
	for _, p := range j.pages {
		if !d.stored.Remove(p) {
			// Already transferred (or never stored) — a benign race when a
			// demand fault and an in-flight prefetch cross on the wire.
			continue
		}
		if p == j.demand {
			d.Stats.DemandServed++
		} else {
			d.Stats.PrefetchServed++
		}
		d.replies.push(p)
		d.link.Send(d.node.NIC, netmodel.Message{Size: PageReply{Page: p}.WireSize(), Payload: &d.replies})
	}
	j.pages = j.pages[:0]
	d.jobs = append(d.jobs, j)
}

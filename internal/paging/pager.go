package paging

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// The migrant-side fault-handling costs, calibrated for the paper's 2 GHz
// Pentium 4.
const (
	// faultBase is charged at every page fault (trap, handler entry).
	faultBase = 2 * simtime.Microsecond
	// installPerPage is charged per arrived page copied into the address
	// space (Algorithm 1's "copy these pages to the migrant's address
	// space").
	installPerPage = 1500 * simtime.Nanosecond
)

// PagerStats accounts the migrant-side paging activity. The fault census
// is not kept here: the executor classifies each fault, and Figure 7's
// "number of page fault requests" is migrate.Result.HardFaults. Figure 8
// divides PrefetchRequested by that count.
type PagerStats struct {
	RequestsSent      int64 // PageRequest messages carrying ≥ 1 page
	PrefetchOnly      int64 // requests with no demand page
	PrefetchRequested int64 // pages requested as prefetch
	DemandRequested   int64 // pages requested on demand

	PagesArrived  int64
	BytesReceived int64

	StallTime simtime.Duration // time the process spent blocked on pages
}

// Pager is the migrant-side remote paging engine: it owns the residency
// state machine, sends batched requests, buffers arrivals, and wakes the
// executor when the page it stalled on arrives.
type Pager struct {
	node *cluster.Node
	link *netmodel.Link
	as   *memory.AddressSpace

	arrived []memory.PageNum // arrived but not yet installed
	free    []*PageRequest   // request records back from the deputy

	// waiting executor state
	waitingOn    memory.PageNum
	waitingSince simtime.Time
	resume       func()

	Stats PagerStats
}

// NewPager installs a pager for the migrant's address space on node. It
// registers itself as a payload handler for PageReply messages.
func NewPager(node *cluster.Node, link *netmodel.Link, as *memory.AddressSpace) *Pager {
	p := &Pager{node: node, link: link, as: as, waitingOn: NoDemand}
	node.Handle(p.handle)
	return p
}

// FaultBaseCost returns the per-fault handler entry cost on this node.
func (p *Pager) FaultBaseCost() simtime.Duration { return p.node.Scale(faultBase) }

// InstallArrived copies every buffered arrived page into the address space
// and returns the CPU cost of doing so. Algorithm 1 performs this at the
// top of each fault.
func (p *Pager) InstallArrived() simtime.Duration {
	if len(p.arrived) == 0 {
		return 0
	}
	n := 0
	for _, page := range p.arrived {
		if p.as.State(page) == memory.StateArrived {
			p.as.SetState(page, memory.StateResident)
			n++
		}
	}
	p.arrived = p.arrived[:0]
	return p.node.Scale(installPerPage * simtime.Duration(n))
}

// Request sends one batched paging request: demand is the faulted page
// (NoDemand when the fault was satisfied locally), prefetch the
// dependent-zone candidates. Pages that are not remote any more are
// filtered out here — "if j is not stored locally, record j in the remote
// paging request" (Algorithm 1). It returns how many prefetch pages were
// actually requested. The wanted pages are copied into a request record
// from the pager's free list, so prefetch may be a buffer the caller
// reuses, such as core.Analysis.Zone.
func (p *Pager) Request(demand memory.PageNum, prefetch []memory.PageNum) int {
	req := p.request()
	for _, page := range prefetch {
		if page == demand {
			continue
		}
		if p.as.State(page) == memory.StateRemote {
			req.Prefetch = append(req.Prefetch, page)
			p.as.SetState(page, memory.StateInFlight)
		}
	}
	if demand != NoDemand {
		if st := p.as.State(demand); st != memory.StateRemote {
			panic(fmt.Sprintf("paging: demand request for page %d in state %v", demand, st))
		}
		p.as.SetState(demand, memory.StateInFlight)
		p.Stats.DemandRequested++
	}
	wanted := len(req.Prefetch)
	if demand == NoDemand && wanted == 0 {
		p.recycle(req)
		return 0 // nothing to ask for; no message
	}

	req.Demand = demand
	p.Stats.RequestsSent++
	if demand == NoDemand {
		p.Stats.PrefetchOnly++
	}
	p.Stats.PrefetchRequested += int64(wanted)
	p.link.Send(p.node.NIC, netmodel.Message{Size: req.WireSize(), Payload: req})
	return wanted
}

// request takes an empty request record from the free list, building one
// when the list is dry.
func (p *Pager) request() *PageRequest {
	if n := len(p.free); n > 0 {
		req := p.free[n-1]
		p.free = p.free[:n-1]
		return req
	}
	return &PageRequest{sender: p}
}

// recycle empties req and returns it to the free list.
func (p *Pager) recycle(req *PageRequest) {
	req.Prefetch = req.Prefetch[:0]
	p.free = append(p.free, req)
}

// Wait registers the executor as blocked on page, with resume invoked once
// the page has arrived and been installed. The page must be in flight
// (either from this fault's demand request or an earlier prefetch).
func (p *Pager) Wait(page memory.PageNum, resume func()) {
	if st := p.as.State(page); st != memory.StateInFlight {
		panic(fmt.Sprintf("paging: wait on page %d in state %v", page, st))
	}
	if p.resume != nil {
		panic("paging: second waiter registered")
	}
	p.waitingOn = page
	p.waitingSince = p.node.Eng.Now()
	p.resume = resume
}

// handle consumes PageReply messages: each delivery of the deputy's
// reply FIFO carries its oldest page.
func (p *Pager) handle(payload any) bool {
	replies, ok := payload.(*replyFIFO)
	if !ok {
		return false
	}
	rep := PageReply{Page: replies.pop()}
	p.Stats.PagesArrived++
	p.Stats.BytesReceived += rep.WireSize()

	if st := p.as.State(rep.Page); st != memory.StateInFlight {
		panic(fmt.Sprintf("paging: arrival of page %d in state %v", rep.Page, st))
	}
	p.as.SetState(rep.Page, memory.StateArrived)
	p.arrived = append(p.arrived, rep.Page)

	if p.resume != nil && rep.Page == p.waitingOn {
		// The stalled fault completes: install everything buffered (we are
		// still inside the fault handler) and resume the process.
		p.Stats.StallTime += p.node.Eng.Now().Sub(p.waitingSince)
		resume := p.resume
		p.resume = nil
		p.waitingOn = NoDemand
		cost := p.InstallArrived()
		p.node.Eng.Schedule(cost, resume)
	}
	return true
}

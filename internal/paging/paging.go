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
// §5.4). Serving a page deletes it at the origin and updates the HPT; the
// migrant flips its MPT entry when the page arrives.
package paging

import (
	"fmt"

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
	Seq      uint64
	Demand   memory.PageNum
	Prefetch []memory.PageNum
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
	Seq    uint64
	Page   memory.PageNum
	Demand bool // serving the request's demand page
}

// WireSize returns the reply's bytes on the wire.
func (r PageReply) WireSize() int64 { return memory.PageSize + ReplyOverhead }

// The deputy's CPU costs, calibrated for the paper's 2 GHz Pentium 4.
const (
	// serveBase is charged once per request (wakeup, request parse).
	serveBase = 25 * simtime.Microsecond
	// servePerPage is charged per page looked up and queued.
	servePerPage = 2 * simtime.Microsecond
)

// DeputyStats counts the deputy's served traffic.
type DeputyStats struct {
	Requests       int64 // requests received
	DemandServed   int64 // demand pages sent
	PrefetchServed int64 // prefetch pages sent
	Skipped        int64 // requested pages no longer stored at the origin
	BytesSent      int64
}

// Deputy is the origin-side stub process: after migration it "only answers
// remote paging requests and executes system calls on behalf of the
// migrant" (§2.2). It owns the HPT side of the table pair.
//
// A Deputy also models the *file server* of Roush's original Freeze Free
// Algorithm: with SetAvailableAfter, page service is gated until the
// origin's dirty-page flush has landed (paper Figure 2, middle).
type Deputy struct {
	node   *cluster.Node
	link   *netmodel.Link
	tables *memory.TablePair

	availableAfter simtime.Time
	gated          []gatedRequest

	Stats DeputyStats
}

// gatedRequest is a request parked until the backing store is ready.
type gatedRequest struct {
	seq    uint64
	pages  []memory.PageNum
	demand map[memory.PageNum]bool
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
	for _, g := range d.gated {
		g := g
		cost := d.node.Scale(serveBase + servePerPage*simtime.Duration(len(g.pages)))
		d.node.Eng.Schedule(cost, func() { d.serve(g.seq, g.pages, g.demand) })
	}
	d.gated = nil
}

// NewDeputy installs a deputy on node serving pages across link from the
// table pair. It registers itself as a payload handler.
func NewDeputy(node *cluster.Node, link *netmodel.Link, tables *memory.TablePair) *Deputy {
	d := &Deputy{node: node, link: link, tables: tables}
	node.Handle(d.handle)
	return d
}

func (d *Deputy) handle(payload any) bool {
	req, ok := payload.(PageRequest)
	if !ok {
		return false
	}
	d.Stats.Requests++

	// The demand page is served first — the migrant is stalled on it — and
	// the dependent zone streams behind it.
	pages := make([]memory.PageNum, 0, len(req.Prefetch)+1)
	demand := map[memory.PageNum]bool{}
	if req.Demand != NoDemand {
		pages = append(pages, req.Demand)
		demand[req.Demand] = true
	}
	pages = append(pages, req.Prefetch...)

	if d.node.Eng.Now() < d.availableAfter {
		d.gated = append(d.gated, gatedRequest{seq: req.Seq, pages: pages, demand: demand})
		return true
	}
	cost := d.node.Scale(serveBase + servePerPage*simtime.Duration(len(pages)))
	d.node.Eng.Schedule(cost, func() { d.serve(req.Seq, pages, demand) })
	return true
}

func (d *Deputy) serve(seq uint64, pages []memory.PageNum, demand map[memory.PageNum]bool) {
	for _, p := range pages {
		if d.tables.HPT.Loc(p) == memory.LocUnmapped {
			// Already transferred (or never stored) — a benign race when a
			// demand fault and an in-flight prefetch cross on the wire.
			d.Stats.Skipped++
			continue
		}
		if err := d.tables.TransferToMigrant(p); err != nil {
			panic(fmt.Sprintf("paging: deputy serving page %d: %v", p, err))
		}
		rep := PageReply{Seq: seq, Page: p, Demand: demand[p]}
		d.Stats.BytesSent += rep.WireSize()
		if demand[p] {
			d.Stats.DemandServed++
		} else {
			d.Stats.PrefetchServed++
		}
		d.link.Send(d.node.NIC, netmodel.Message{Size: rep.WireSize(), Payload: rep})
	}
}

// Package infod models the paper's resource discovery and monitoring
// daemon — a modified oM_infoD (§2.4, §4). It supplies the two network
// estimates AMPoM's Equation 3 consumes:
//
//   - t0, the round-trip time to the origin node, measured by timing the
//     acknowledgement of periodic load updates. Because this is a
//     user-level daemon exchange, the estimate includes daemon scheduling
//     delay on both sides and any queueing behind bulk page traffic — it is
//     deliberately much larger than the wire RTT (see DESIGN.md), and it
//     grows when the network is busy, which is exactly what makes AMPoM
//     "prefetch more aggressively ... when the network is busy" (§1).
//
//   - td, the transfer time of one page at the currently available
//     bandwidth, estimated by differencing the NIC's RX/TX byte counters
//     (the paper reads them from /sbin/ifconfig) over the recent past.
package infod

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// exchange is one load-update round trip: the periodic oM_infoD update a
// daemon sends its peer, which the peer turns round into the ack whose
// arrival is the RTT sample. One record carries both legs, and its send
// callback is built once, when the record is made, so an exchange
// allocates nothing: the sender takes the record from its free list and
// puts it back when the ack lands. The current leg's receiver is always
// from's peer, which is how Route finds it.
type exchange struct {
	sentAt simtime.Time // when the update was composed
	from   *Daemon      // the daemon sending the current leg
	ack    bool         // the current leg is the ack
	send   func()       // hands the record to from's link
}

// Daemon is one node's monitoring daemon, paired with the peer daemon at
// the other end of the link. Every period it sends its peer a load update
// and times the ack; the exchange records it sends come back to it and are
// reused, so a running daemon pair allocates nothing per period.
type Daemon struct {
	estimator
	period simtime.Duration
	link   *netmodel.Link

	ticker *sim.Ticker
	peer   *Daemon     // set by Pair
	free   []*exchange // this daemon's records not in flight

	// RTT estimate state.
	rttEst  simtime.Duration
	haveRTT bool
}

// New creates a daemon on node, talking across link, that broadcasts a
// load update every period. Seed drives the scheduling-delay jitter. The
// daemon registers no handler of its own: whoever wires daemons registers
// Route once on every node that runs one, whatever their number.
func New(period simtime.Duration, node *cluster.Node, link *netmodel.Link, seed uint64) *Daemon {
	d := &Daemon{
		estimator: newEstimator(node, link.Profile().BandwidthBps, seed),
		period:    period,
		link:      link,
	}
	// Until the first ack arrives the daemon assumes two scheduling delays
	// plus the wire — a sensible prior for a freshly joined node.
	d.rttEst = 2*SchedDelay + link.RTT()
	return d
}

// Pair binds two daemons as the endpoints of one monitored link: each is the
// receiver of every exchange leg the other sends, so a hub node running one
// daemon per spoke in a star-topology cluster hands each update and ack to
// its spoke's daemon directly. Every daemon is paired before it starts.
func Pair(a, b *Daemon) {
	a.peer = b
	b.peer = a
}

// Start begins periodic load updates.
func (d *Daemon) Start() {
	if d.ticker != nil {
		return
	}
	d.ticker = sim.NewTicker(d.eng, d.period, d.sendUpdate)
}

// Stop halts periodic updates.
func (d *Daemon) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

func (d *Daemon) sendUpdate() {
	var x *exchange
	if n := len(d.free); n > 0 {
		x = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		x = &exchange{}
		x.send = func() {
			x.from.link.Send(x.from.node.NIC, netmodel.Message{Size: MsgBytes, Payload: x})
		}
	}
	// The daemon wakes, composes the update, and hands it to the kernel
	// after a scheduling delay; sentAt is stamped at composition time, as
	// the real daemon stamps its payload.
	x.sentAt, x.from, x.ack = d.eng.Now(), d, false
	d.eng.Schedule(d.schedDelay(), x.send)
}

// Route is the node handler for paired-daemon traffic. An exchange names
// its receiver, the sender's peer, so one Route on a node serves every
// daemon the node runs: it hands the exchange straight to that daemon and
// leaves every other payload to the next handler. An exchange from an
// unpaired daemon has no receiver and panics.
func Route(payload any) bool {
	x, ok := payload.(*exchange)
	if !ok {
		return false
	}
	d := x.from.peer
	if d == nil {
		panic(fmt.Sprintf("infod: exchange from an unpaired daemon on node %q", x.from.node.Name))
	}
	if !x.ack {
		// Ack after this side's scheduling delay.
		x.from, x.ack = d, true
		d.eng.Schedule(d.schedDelay(), x.send)
		return true
	}
	d.recordRTT(d.eng.Now().Sub(x.sentAt))
	d.free = append(d.free, x)
	return true
}

func (d *Daemon) recordRTT(sample simtime.Duration) {
	if !d.haveRTT {
		d.rttEst = sample
		d.haveRTT = true
		return
	}
	d.rttEst = ewma(sample, d.rttEst)
}

// RTT returns the daemon's current round-trip estimate (2t0 of Eq. 3).
func (d *Daemon) RTT() simtime.Duration { return d.rttEst }

// Estimates assembles the measurements AMPoM's analysis consumes: the
// daemon-level RTT and the transfer time of one page (plus protocol
// header) at the estimated bandwidth.
func (d *Daemon) Estimates() core.Estimates {
	return core.Estimates{RTT: d.rttEst, PageTransfer: d.pageTransfer()}
}

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
	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// loadUpdate is the periodic oM_infoD broadcast carrying node load; the
// peer acknowledges it, and the ack round trip is the RTT sample.
type loadUpdate struct {
	Seq    uint64
	SentAt simtime.Time
	From   *Daemon
}

// loadAck acknowledges a loadUpdate.
type loadAck struct {
	Seq    uint64
	SentAt simtime.Time
	From   *Daemon
}

// Daemon is one node's monitoring daemon, paired with the peer daemon at
// the other end of the link.
type Daemon struct {
	estimator
	period simtime.Duration
	link   *netmodel.Link

	ticker *sim.Ticker
	seq    uint64
	peer   *Daemon // set by Pair; nil daemons answer any peer

	// RTT estimate state.
	rttEst  simtime.Duration
	haveRTT bool

	// CPU utilisation hook: the executor (or scheduler) publishes the
	// node's current utilisation here; the daemon just reports it, as the
	// original oM_infoD does.
	cpuUtil func() float64
}

// New creates a daemon on node, talking across link, that broadcasts a
// load update every period. Seed drives the scheduling-delay jitter.
func New(period simtime.Duration, node *cluster.Node, link *netmodel.Link, seed uint64) *Daemon {
	d := &Daemon{
		estimator: newEstimator(node, link.Profile().BandwidthBps, seed),
		period:    period,
		link:      link,
	}
	// Until the first ack arrives the daemon assumes two scheduling delays
	// plus the wire — a sensible prior for a freshly joined node.
	d.rttEst = 2*SchedDelay + link.RTT()
	node.Handle(d.handle)
	return d
}

// SetCPUUtil installs the utilisation probe reported to peers.
func (d *Daemon) SetCPUUtil(f func() float64) { d.cpuUtil = f }

// Pair binds two daemons as the endpoints of one monitored link: each then
// handles only traffic originating from the other and leaves everything else
// to the next handler on its node. Unpaired daemons keep the historical
// behaviour (answer any daemon traffic), so two-node experiments are
// unchanged; pairing is what lets a hub node run one daemon per spoke in a
// star-topology cluster without the daemons stealing each other's acks.
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
	d.seq++
	// The daemon wakes, composes the update, and hands it to the kernel
	// after a scheduling delay; SentAt is stamped at composition time, as
	// the real daemon stamps its payload.
	upd := loadUpdate{Seq: d.seq, SentAt: d.eng.Now(), From: d}
	d.eng.Schedule(d.schedDelay(), func() {
		d.link.Send(d.node.NIC, netmodel.Message{Size: MsgBytes, Payload: upd})
	})
}

// handle consumes daemon messages delivered to this node.
func (d *Daemon) handle(payload any) bool {
	switch m := payload.(type) {
	case loadUpdate:
		if m.From == d {
			return false // our own update echoed back — not ours to handle
		}
		if d.peer != nil && m.From != d.peer {
			return false // another spoke's update — its own daemon acks it
		}
		// Ack after this side's scheduling delay.
		ack := loadAck{Seq: m.Seq, SentAt: m.SentAt, From: d}
		d.eng.Schedule(d.schedDelay(), func() {
			d.link.Send(d.node.NIC, netmodel.Message{Size: MsgBytes, Payload: ack})
		})
		return true
	case loadAck:
		if d.peer != nil && m.From != nil && m.From != d.peer {
			return false
		}
		sample := d.eng.Now().Sub(m.SentAt)
		d.recordRTT(sample)
		return true
	default:
		return false
	}
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

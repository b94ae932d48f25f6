// Package netmodel models the cluster interconnect: point-to-point links
// with propagation latency and finite bandwidth, NICs with RX/TX byte
// counters (the /sbin/ifconfig fields the paper's infoD daemon samples), and
// traffic shaping equivalent to the Linux tc setup used in the paper's
// broadband experiment.
//
// A link serialises messages FIFO: a message of size s leaves the sender
// max(now, lastDeparture) + s/bandwidth after being handed to the link and
// arrives one propagation latency later. Back-to-back messages therefore
// pipeline — the receiver sees them spaced by their serialisation times but
// pays the propagation latency only once. This is the effect AMPoM's batched
// prefetching exploits (paper §5.4).
package netmodel

import (
	"fmt"

	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// Profile describes a link's characteristics.
type Profile struct {
	// Name describes the profile in reports.
	Name string
	// LatencyOneWay is the one-way propagation delay.
	LatencyOneWay simtime.Duration
	// BandwidthBps is the effective data bandwidth in bytes per second
	// (after protocol overheads).
	BandwidthBps float64
}

// FastEthernet matches the paper's testbed: the HKU Gideon 300 cluster's
// 100 Mb/s Fast Ethernet. The effective bandwidth is calibrated from the
// paper's §5.2 anchor: a 575 MB process (147200 pages plus per-page
// framing) migrates in 53.9 s, i.e. ≈11.4 MB/s of goodput through the
// openMosix transfer path.
func FastEthernet() Profile {
	return Profile{
		Name:          "fast-ethernet-100Mbps",
		LatencyOneWay: 100 * simtime.Microsecond,
		BandwidthBps:  11.36e6,
	}
}

// Broadband matches the paper's §5.5 tc-shaped network: 6 Mb/s available
// bandwidth and 2 ms latency.
func Broadband() Profile {
	return Profile{
		Name:          "broadband-6Mbps",
		LatencyOneWay: 2 * simtime.Millisecond,
		BandwidthBps:  0.75e6,
	}
}

// Shape returns a copy of p adjusted to the given bandwidth (bits per
// second) and one-way latency, mirroring `tc qdisc` traffic shaping.
func Shape(p Profile, bitsPerSecond float64, latency simtime.Duration) Profile {
	p.Name = fmt.Sprintf("%s(shaped-%.1fMbps)", p.Name, bitsPerSecond/1e6)
	p.BandwidthBps = bitsPerSecond / 8
	p.LatencyOneWay = latency
	return p
}

// TransferTime returns the serialisation time for size bytes at the
// profile's bandwidth (excluding propagation latency).
func (p Profile) TransferTime(size int64) simtime.Duration {
	if size <= 0 {
		return 0
	}
	return simtime.FromSeconds(float64(size) / p.BandwidthBps)
}

// Message is a payload in flight. Payload is opaque to the network.
type Message struct {
	Size    int64 // bytes on the wire
	Payload any
}

// Handler receives delivered messages.
type Handler func(m Message)

// Counters are cumulative NIC statistics, mirroring ifconfig's RX/TX byte
// fields.
type Counters struct {
	TxBytes int64
	RxBytes int64
}

// NIC is a network endpoint with counters. Attach one per node.
type NIC struct {
	Counters Counters
	handler  Handler

	// Quiet suppresses counter updates. Interior fabric vertices (switch
	// cores) whose links live on different shard engines set it so that no
	// NIC has concurrent counter writers; nothing in the model reads a
	// switch's counters.
	Quiet bool
}

// NewNIC returns a NIC delivering received messages to handler.
func NewNIC(handler Handler) *NIC {
	return &NIC{handler: handler}
}

// SetHandler replaces the delivery callback (used when a node binds its
// protocol stack after NIC creation).
func (n *NIC) SetHandler(h Handler) { n.handler = h }

// deliver records and dispatches an arriving message.
func (n *NIC) deliver(m Message) {
	if !n.Quiet {
		n.Counters.RxBytes += m.Size
	}
	if n.handler != nil {
		n.handler(m)
	}
}

// Link is a full-duplex point-to-point connection between two NICs. Each
// direction is an independent FIFO pipe with its own serialisation horizon,
// so traffic in one direction does not delay the other (switched Ethernet).
type Link struct {
	eng     *sim.Engine
	profile Profile
	a, b    *NIC

	// busyUntil tracks, per direction, when the transmitter finishes
	// serialising the last queued message.
	busyUntilAB simtime.Time
	busyUntilBA simtime.Time

	// Background load: fraction [0,1) of bandwidth consumed by other
	// traffic, reducing effective serialisation rate. Used to model a busy
	// network in adaptation experiments.
	backgroundLoad float64

	// router, when set, is offered every delivery before it is scheduled
	// on the link's engine. See SetDeliveryRouter.
	router DeliveryRouter
}

// DeliveryRouter intercepts a delivery scheduled for NIC to at instant at.
// Returning true claims the delivery: the link schedules nothing and the
// router must arrange for deliver (which updates the NIC's RX counters
// before dispatching) to run at at, or
// substitute its own dispatch. A sharded fabric uses this to land
// deliveries on the engine that owns the receiver's state instead of the
// engine the sender ran on.
type DeliveryRouter func(to *NIC, m Message, at simtime.Time, deliver func()) bool

// NewLink connects two NICs with the given profile.
func NewLink(eng *sim.Engine, profile Profile, a, b *NIC) *Link {
	if a == nil || b == nil {
		panic("netmodel: link requires two NICs")
	}
	return &Link{eng: eng, profile: profile, a: a, b: b}
}

// Profile returns the link's current characteristics.
func (l *Link) Profile() Profile { return l.profile }

// SetBackgroundLoad sets the fraction of bandwidth consumed by competing
// traffic, in [0, 0.95].
func (l *Link) SetBackgroundLoad(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 0.95 {
		f = 0.95
	}
	l.backgroundLoad = f
}

// effectiveBandwidth returns bytes/s available to foreground traffic.
func (l *Link) effectiveBandwidth() float64 {
	return l.profile.BandwidthBps * (1 - l.backgroundLoad)
}

// Send transmits m from the NIC from towards its peer. It returns the
// scheduled arrival instant. Sending from a NIC not attached to the link
// panics — it indicates a mis-wired model.
func (l *Link) Send(from *NIC, m Message) simtime.Time {
	var to *NIC
	var busy *simtime.Time
	switch from {
	case l.a:
		to, busy = l.b, &l.busyUntilAB
	case l.b:
		to, busy = l.a, &l.busyUntilBA
	default:
		panic("netmodel: send from NIC not attached to link")
	}

	now := l.eng.Now()
	start := now
	if busy.After(start) {
		start = *busy
	}
	ser := simtime.FromSeconds(float64(m.Size) / l.effectiveBandwidth())
	departure := start.Add(ser)
	*busy = departure
	arrival := departure.Add(l.profile.LatencyOneWay)

	if !from.Quiet {
		from.Counters.TxBytes += m.Size
	}
	deliver := func() { to.deliver(m) }
	if l.router != nil && l.router(to, m, arrival, deliver) {
		return arrival
	}
	l.eng.At(arrival, deliver)
	return arrival
}

// SetDeliveryRouter installs (or, with nil, removes) a delivery router on
// the link. With no router every delivery is scheduled on the link's own
// engine, which is the sequential behaviour.
func (l *Link) SetDeliveryRouter(r DeliveryRouter) { l.router = r }

// RTT returns the wire round-trip time for a minimal message pair under the
// current profile (twice the propagation latency; serialisation of tiny
// messages is negligible and excluded).
func (l *Link) RTT() simtime.Duration { return 2 * l.profile.LatencyOneWay }

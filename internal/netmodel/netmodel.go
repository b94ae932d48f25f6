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
//
// Because arrivals in one direction never decrease, each direction is a
// FIFO pipe in the model too: in-flight messages wait in a ring in send
// order, and every delivery event runs the one callback the pipe built at
// link creation, which pops the front. Sending a message therefore
// allocates nothing once the ring has grown to the direction's in-flight
// high-water mark. Link.Reserve takes a message's place in a direction's
// serialisation without queueing or scheduling it: its caller delivers it
// with NIC.Receive at the returned instant, on whichever engine owns the
// receiver — how a sharded fabric stages a hop on another shard.
package netmodel

import (
	"fmt"

	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// Profile describes a link's characteristics.
type Profile struct {
	// Name describes the profile in reports.
	Name string `json:"name,omitempty"`
	// LatencyOneWay is the one-way propagation delay.
	LatencyOneWay simtime.Duration `json:"latency_one_way"`
	// BandwidthBps is the effective data bandwidth in bytes per second
	// (after protocol overheads).
	BandwidthBps float64 `json:"bandwidth_bps,omitempty"`
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

// Receive records and dispatches an arriving message: it updates the RX
// counters, then runs the handler. A link calls it for every message it
// sends; a caller that reserved a message's transmission (Link.Reserve)
// calls it at the returned instant instead.
func (n *NIC) Receive(m Message) {
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
	ab, ba  pipe // the a→b and b→a directions

	// Background load: fraction [0,1) of bandwidth consumed by other
	// traffic, reducing effective serialisation rate. Used to model a busy
	// network in adaptation experiments.
	backgroundLoad float64
}

// pipe is one direction of a link. Its deliveries are scheduled on the
// link's engine in send order with non-decreasing instants, and the engine
// orders equal instants by scheduling time and then push order, so they
// fire in send order: the front of the ring is always the message whose
// delivery is running. pop checks that rather than assuming it.
type pipe struct {
	to *NIC
	// busyUntil is when the transmitter finishes serialising the last
	// queued message.
	busyUntil simtime.Time

	// ring holds the in-flight messages the link delivers itself (not the
	// reserved ones), oldest at head; its length is a power of two.
	ring    []inFlight
	head, n int

	// deliver pops the front message and hands it to to. It is built once
	// in NewLink and scheduled for every sent message.
	deliver func()
}

// inFlight is a queued message and the instant it arrives.
type inFlight struct {
	m  Message
	at simtime.Time
}

// push appends a message arriving at at to the back of the ring, doubling
// the ring when it is full.
func (p *pipe) push(m Message, at simtime.Time) {
	if p.n == len(p.ring) {
		grown := make([]inFlight, max(4, 2*len(p.ring)))
		for i := 0; i < p.n; i++ {
			grown[i] = p.ring[(p.head+i)&(len(p.ring)-1)]
		}
		p.ring, p.head = grown, 0
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = inFlight{m: m, at: at}
	p.n++
}

// NewLink connects two NICs with the given profile.
func NewLink(eng *sim.Engine, profile Profile, a, b *NIC) *Link {
	if a == nil || b == nil {
		panic("netmodel: link requires two NICs")
	}
	l := &Link{eng: eng, profile: profile, ab: pipe{to: b}, ba: pipe{to: a}}
	l.ab.deliver = func() { l.ab.pop(eng) }
	l.ba.deliver = func() { l.ba.pop(eng) }
	return l
}

// pop delivers the front message; eng is the link's engine, whose clock
// must stand at the front's arrival instant.
func (p *pipe) pop(eng *sim.Engine) {
	if p.n == 0 {
		panic("netmodel: delivery from an empty link direction")
	}
	slot := &p.ring[p.head]
	if slot.at != eng.Now() {
		panic(fmt.Sprintf("netmodel: link direction out of FIFO order: front arrives at %v, delivered at %v", slot.at, eng.Now()))
	}
	m := slot.m
	*slot = inFlight{} // drop the payload reference
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.n--
	p.to.Receive(m)
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
	p, arrival := l.reserve(from, m)
	p.push(m, arrival)
	l.eng.At(arrival, p.deliver)
	return arrival
}

// Reserve transmits m from the NIC from as Send does — it takes its place
// in the direction's FIFO serialisation and counts its TX bytes — but
// schedules no delivery: the caller must arrange for the peer's Receive(m)
// to run at the returned arrival instant. A sharded fabric uses it to run
// a delivery on the engine that owns the receiver's state instead of the
// link's.
func (l *Link) Reserve(from *NIC, m Message) simtime.Time {
	_, arrival := l.reserve(from, m)
	return arrival
}

// reserve serialises m onto from's direction and counts its TX bytes,
// returning the direction and m's arrival instant.
func (l *Link) reserve(from *NIC, m Message) (*pipe, simtime.Time) {
	var p *pipe
	switch from {
	case l.ba.to:
		p = &l.ab
	case l.ab.to:
		p = &l.ba
	default:
		panic("netmodel: send from NIC not attached to link")
	}

	start := l.eng.Now()
	if p.busyUntil.After(start) {
		start = p.busyUntil
	}
	ser := simtime.FromSeconds(float64(m.Size) / l.effectiveBandwidth())
	p.busyUntil = start.Add(ser)
	if !from.Quiet {
		from.Counters.TxBytes += m.Size
	}
	return p, p.busyUntil.Add(l.profile.LatencyOneWay)
}

// RTT returns the wire round-trip time for a minimal message pair under the
// current profile (twice the propagation latency; serialisation of tiny
// messages is negligible and excluded).
func (l *Link) RTT() simtime.Duration { return 2 * l.profile.LatencyOneWay }

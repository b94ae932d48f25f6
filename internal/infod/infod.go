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
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// Config tunes the daemon. Zero fields take defaults.
type Config struct {
	// UpdatePeriod is the load-update broadcast period. Default 1 s.
	UpdatePeriod simtime.Duration
	// SchedDelay is the mean user-level scheduling delay a daemon suffers
	// before handling a message (being woken, scheduled, and run on a
	// timesharing node). Default 6 ms, which lands the daemon-level RTT
	// estimate in the tens of milliseconds once queueing behind page
	// traffic is folded in — the magnitude the paper's Figure 8 prefetch
	// depths imply.
	SchedDelay simtime.Duration
	// Jitter is the fractional spread of SchedDelay. Default 0.5.
	Jitter float64
	// Alpha is the EWMA smoothing weight for the RTT estimate. Default 0.1:
	// slow convergence means short runs keep a near-prior estimate while
	// long saturated runs converge to queue-inflated values, which is what
	// makes prefetch depth grow with program size (Figure 8).
	Alpha float64
	// BandwidthFloorFrac floors the bandwidth estimate at this fraction of
	// nominal capacity, so an idle network does not yield a degenerate td.
	// Default 0.25.
	BandwidthFloorFrac float64
	// MsgBytes is the wire size of a load update / ack. Default 192.
	MsgBytes int64
}

func (c Config) withDefaults() Config {
	if c.UpdatePeriod == 0 {
		c.UpdatePeriod = simtime.Second
	}
	if c.SchedDelay == 0 {
		c.SchedDelay = 6 * simtime.Millisecond
	}
	if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.BandwidthFloorFrac == 0 {
		c.BandwidthFloorFrac = 0.25
	}
	if c.MsgBytes == 0 {
		c.MsgBytes = 192
	}
	return c
}

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
	cfg  Config
	eng  *sim.Engine
	node *cluster.Node
	link *netmodel.Link
	rng  *prng.Source

	ticker *sim.Ticker
	seq    uint64
	peer   *Daemon // set by Pair; nil daemons answer any peer

	// RTT estimate state.
	rttEst  simtime.Duration
	haveRTT bool

	// Bandwidth estimate state: last counter snapshot.
	lastBytes   int64
	lastAt      simtime.Time
	bwEst       float64
	haveBw      bool
	nominalBw   float64
	minInterval simtime.Duration

	// CPU utilisation hook: the executor (or scheduler) publishes the
	// node's current utilisation here; the daemon just reports it, as the
	// original oM_infoD does.
	cpuUtil func() float64
}

// New creates a daemon on node, talking across link. Seed drives the
// scheduling-delay jitter.
func New(cfg Config, node *cluster.Node, link *netmodel.Link, seed uint64) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:         cfg,
		eng:         node.Eng,
		node:        node,
		link:        link,
		rng:         prng.New(seed),
		nominalBw:   link.Profile().BandwidthBps,
		minInterval: 10 * simtime.Millisecond,
		lastAt:      node.Eng.Now(),
	}
	// Until the first ack arrives the daemon assumes two scheduling delays
	// plus the wire — a sensible prior for a freshly joined node.
	d.rttEst = 2*cfg.SchedDelay + link.RTT()
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
	d.ticker = sim.NewTicker(d.eng, d.cfg.UpdatePeriod, d.sendUpdate)
}

// Stop halts periodic updates.
func (d *Daemon) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// schedDelay draws one user-level scheduling delay.
func (d *Daemon) schedDelay() simtime.Duration {
	j := 1 + d.cfg.Jitter*(2*d.rng.Float64()-1)
	return simtime.Duration(float64(d.cfg.SchedDelay) * j)
}

func (d *Daemon) sendUpdate() {
	d.seq++
	// The daemon wakes, composes the update, and hands it to the kernel
	// after a scheduling delay; SentAt is stamped at composition time, as
	// the real daemon stamps its payload.
	upd := loadUpdate{Seq: d.seq, SentAt: d.eng.Now(), From: d}
	d.eng.Schedule(d.schedDelay(), func() {
		d.link.Send(d.node.NIC, netmodel.Message{Size: d.cfg.MsgBytes, Payload: upd})
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
			d.link.Send(d.node.NIC, netmodel.Message{Size: d.cfg.MsgBytes, Payload: ack})
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
	a := d.cfg.Alpha
	d.rttEst = simtime.Duration(a*float64(sample) + (1-a)*float64(d.rttEst))
}

// RTT returns the daemon's current round-trip estimate (2t0 of Eq. 3).
func (d *Daemon) RTT() simtime.Duration { return d.rttEst }

// refreshBandwidth re-derives the bandwidth estimate from NIC counter
// deltas if enough time passed since the previous sample (the paper
// resamples every time the lookback window loops once).
func (d *Daemon) refreshBandwidth() {
	now := d.eng.Now()
	elapsed := now.Sub(d.lastAt)
	if d.haveBw && elapsed < d.minInterval {
		return
	}
	cur := d.node.NIC.Counters.RxBytes + d.node.NIC.Counters.TxBytes
	if elapsed > 0 {
		observed := float64(cur-d.lastBytes) / elapsed.Seconds()
		floor := d.cfg.BandwidthFloorFrac * d.nominalBw
		if observed < floor {
			observed = floor
		}
		if observed > d.nominalBw {
			observed = d.nominalBw
		}
		d.bwEst = observed
		d.haveBw = true
	}
	d.lastBytes = cur
	d.lastAt = now
}

// Bandwidth returns the current bytes/s estimate.
func (d *Daemon) Bandwidth() float64 {
	d.refreshBandwidth()
	if !d.haveBw {
		return d.cfg.BandwidthFloorFrac * d.nominalBw
	}
	return d.bwEst
}

// Estimates assembles the measurements AMPoM's analysis consumes: the
// daemon-level RTT and the transfer time of one page (plus protocol
// header) at the estimated bandwidth.
func (d *Daemon) Estimates() core.Estimates {
	bw := d.Bandwidth()
	pageBytes := float64(memory.PageSize + 64)
	return core.Estimates{
		RTT:          d.rttEst,
		PageTransfer: simtime.FromSeconds(pageBytes / bw),
	}
}

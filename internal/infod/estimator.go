package infod

import (
	"ampom/internal/cluster"
	"ampom/internal/prng"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// The daemon calibration both monitoring planes share — the paired
// daemons of the star and the gossip daemons of switched fabrics.
const (
	// SchedDelay is the mean user-level scheduling delay a daemon suffers
	// before handling a message (being woken, scheduled, and run on a
	// timesharing node). 6 ms lands the daemon-level RTT estimate in the
	// tens of milliseconds once queueing behind page traffic is folded in
	// — the magnitude the paper's Figure 8 prefetch depths imply.
	SchedDelay = 6 * simtime.Millisecond
	// Jitter is the fractional spread of SchedDelay.
	Jitter = 0.5
	// Alpha is the EWMA weight folding a new sample into the RTT (paired)
	// or per-origin staleness (gossip) estimate. Slow convergence means
	// short runs keep a near-prior estimate while long saturated runs
	// converge to queue-inflated values, which is what makes prefetch
	// depth grow with program size (Figure 8).
	Alpha = 0.1
	// BandwidthFloorFrac floors the bandwidth estimate at this fraction of
	// nominal capacity, so an idle network does not yield a degenerate td.
	BandwidthFloorFrac = 0.25
	// MsgBytes is the wire size of a load update, an ack, a gossip pull
	// request and a gossip message header.
	MsgBytes = 192
	// EntryBytes is the wire size of one gossiped load-vector entry.
	EntryBytes = 32
	// MaxAge expires gossip entries: they are dropped from outgoing
	// windows, and local reads past MaxAge report Unknown.
	MaxAge = 30 * simtime.Second
	// PullEvery sets the gossip anti-entropy pull period to PullEvery
	// push periods.
	PullEvery = 4
)

// bwMinInterval is the shortest span the bandwidth estimate differences
// the NIC counters over.
const bwMinInterval = 10 * simtime.Millisecond

// estimator is the measurement machinery both daemons share: the jittered
// scheduling-delay draw, the EWMA step, and the bandwidth estimate the
// paper derives by differencing the NIC's RX/TX byte counters (it reads
// them from /sbin/ifconfig). Its rng is the daemon's only random stream.
type estimator struct {
	eng  *sim.Engine
	node *cluster.Node
	rng  *prng.Source

	// Bandwidth estimate state: last counter snapshot.
	nominalBw float64
	lastBytes int64
	lastAt    simtime.Time
	bwEst     float64
	haveBw    bool
}

// newEstimator returns node's estimator, drawing from rng.
func newEstimator(node *cluster.Node, nominalBw float64, rng *prng.Source) estimator {
	return estimator{
		eng:       node.Eng,
		node:      node,
		rng:       rng,
		nominalBw: nominalBw,
		lastAt:    node.Eng.Now(),
	}
}

// schedDelay draws one user-level scheduling delay.
func (e *estimator) schedDelay() simtime.Duration {
	j := 1 + Jitter*(2*e.rng.Float64()-1)
	return simtime.Duration(float64(SchedDelay) * j)
}

// ewma folds sample into the running estimate est.
func ewma(sample, est simtime.Duration) simtime.Duration {
	return simtime.Duration(Alpha*float64(sample) + (1-Alpha)*float64(est))
}

// refreshBandwidth re-derives the bandwidth estimate from NIC counter
// deltas if enough time passed since the previous sample (the paper
// resamples every time the lookback window loops once).
func (e *estimator) refreshBandwidth() {
	now := e.eng.Now()
	elapsed := now.Sub(e.lastAt)
	if e.haveBw && elapsed < bwMinInterval {
		return
	}
	cur := e.node.NIC.Counters.RxBytes + e.node.NIC.Counters.TxBytes
	if elapsed > 0 {
		observed := float64(cur-e.lastBytes) / elapsed.Seconds()
		floor := BandwidthFloorFrac * e.nominalBw
		if observed < floor {
			observed = floor
		}
		if observed > e.nominalBw {
			observed = e.nominalBw
		}
		e.bwEst = observed
		e.haveBw = true
	}
	e.lastBytes = cur
	e.lastAt = now
}

// Bandwidth returns the current bytes/s estimate.
func (e *estimator) Bandwidth() float64 {
	e.refreshBandwidth()
	if !e.haveBw {
		return BandwidthFloorFrac * e.nominalBw
	}
	return e.bwEst
}

// pageTransfer is td of Eq. 3: the transfer time of one framed page at the
// estimated bandwidth.
func (e *estimator) pageTransfer() simtime.Duration {
	return simtime.FromSeconds(float64(cluster.PageFrameBytes) / e.Bandwidth())
}

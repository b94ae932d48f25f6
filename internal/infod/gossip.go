// Decentralised gossip dissemination — the switched-fabric replacement for
// the paired hub-spoke daemon exchange. One Gossip daemon runs per node;
// every period it pushes a bounded window of its load vector — its own
// fresh sample plus the l-1 most recently refreshed entries it has heard,
// the openMosix "l freshest entries" dissemination — to a few distinct
// random peers. Entries age as they propagate, and the t0 estimate AMPoM's
// Equation 3 consumes is derived per origin from the observed gossip-path
// timing. Because an entry's age accumulates queueing, scheduling delay and
// hop count, balancer policies on a large fabric see staleness that grows
// with topology distance — the MOSIX information-dissemination behaviour
// the related farm literature describes, rather than the paper's two-node
// pairing.
//
// Storage is compact: a daemon keeps only the origins it has actually
// heard from (a flat cell table — dense pointer-free cells behind an
// open-addressed origin index — plus a recency ring ordering them by last
// refresh), never a dense length-n vector, so the whole gossip plane is
// O(n·l·retention) resident rather than O(n²). Alongside the periodic
// pushes, each daemon runs slower anti-entropy pull rounds: it asks one
// random peer for that peer's current window, which heals partitions and
// brings late joiners up to date even when pushes alone would starve them.
package infod

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// GossipConfig shapes a gossip daemon's dissemination. Every field must be
// positive; the fabric resolves them from its spec (fabric.DefaultGossip*).
// The rest of the daemon's calibration is the package constants.
type GossipConfig struct {
	// Period is the gossip push period; anti-entropy pulls run every
	// PullEvery periods.
	Period simtime.Duration
	// Fanout is how many distinct random peers each push round targets.
	Fanout int
	// WindowLen is l, the maximum number of entries (own sample included)
	// one outgoing vector carries — the openMosix bounded partial view.
	WindowLen int
}

// LoadSample is one node's disseminated load state at a stamp instant.
type LoadSample struct {
	// Load is the CPU-scaled runnable load (queue length / CPU scale).
	Load float64
	// Queue is the raw runnable-queue length.
	Queue int
	// UsedMemMB is the resident memory footprint.
	UsedMemMB int64
}

// GossipEntry is one origin's entry in a daemon's load vector.
type GossipEntry struct {
	// Sample is the origin's load state as of Stamp.
	Sample LoadSample
	// Stamp is the origin-side composition instant of the sample.
	Stamp simtime.Time
	// Hops counts how many daemon-to-daemon pushes the entry crossed.
	Hops int
	// Known reports whether any sample for the origin has arrived yet.
	Known bool
}

// gossipEntryWire is one entry on the wire (hops as recorded by the
// sender; the receiver increments).
type gossipEntryWire struct {
	Origin int
	Entry  GossipEntry
}

// gossipMsg is one load-vector push (or pull response — the receiver
// merges both identically).
type gossipMsg struct {
	From    int
	Entries []gossipEntryWire
}

// gossipPullMsg is one anti-entropy pull request: the receiver replies to
// From with its own current window.
type gossipPullMsg struct {
	From int
}

// cell is one heard origin's state: the entry itself plus the per-origin
// staleness EWMA, and the recency-ring position of the origin's latest
// refresh (the dedup key the window composer checks). Every cell has an
// age sample: merge records one as it inserts the cell.
type cell struct {
	entry   GossipEntry
	ageEst  simtime.Duration
	ringPos int64
	origin  int32
}

// sweepFloor is the minimum heard-set size before expiry sweeps trigger.
const sweepFloor = 64

// Gossip is one node's gossip dissemination daemon.
type Gossip struct {
	estimator
	cfg  GossipConfig
	id   int
	n    int
	send func(dst int, m netmodel.Message)

	probe      func() LoadSample
	ticker     *sim.Ticker
	pullTicker *sim.Ticker

	// self is the daemon's own latest sample; cells holds only origins
	// actually heard from. ring is a circular buffer of origin ids in
	// refresh order (ringN total appends); an origin is current at ring
	// position p iff its cell's ringPos == p, so the window composer walks
	// the ring newest-first with O(1) dedup. sweepAt is the heard-set size
	// that triggers the next amortised expiry sweep. rttSum is the sum of
	// 2×ageEst over every cell, kept in step by recordAge and drop.
	self    GossipEntry
	cells   cellTable
	ring    []int32
	ringN   int64
	sweepAt int
	rttSum  simtime.Duration

	peerScratch []int
}

// NewGossip creates the gossip daemon of node id in an n-node cluster.
// send routes one message to a peer (the fabric's topology path); seed
// drives the daemon's jitter and peer-selection stream. The daemon
// registers its message handler on the node; call Start to begin pushing.
// It panics unless every cfg field is positive.
func NewGossip(cfg GossipConfig, node *cluster.Node, id, n int, nominalBw float64, send func(dst int, m netmodel.Message), seed uint64) *Gossip {
	if cfg.Period <= 0 || cfg.Fanout <= 0 || cfg.WindowLen <= 0 {
		panic(fmt.Sprintf("infod: non-positive gossip config %+v", cfg))
	}
	ringCap := 4 * cfg.WindowLen
	if ringCap < sweepFloor {
		ringCap = sweepFloor
	}
	g := &Gossip{
		estimator: newEstimator(node, nominalBw, seed),
		cfg:       cfg,
		id:        id,
		n:         n,
		send:      send,
		ring:      make([]int32, ringCap),
		sweepAt:   sweepFloor,
	}
	node.Handle(g.handle)
	return g
}

// ID returns the daemon's node id.
func (g *Gossip) ID() int { return g.id }

// SetProbe installs the local load probe sampled at every push round.
func (g *Gossip) SetProbe(f func() LoadSample) { g.probe = f }

// Start begins periodic pushes and anti-entropy pulls.
func (g *Gossip) Start() {
	if g.ticker != nil {
		return
	}
	g.ticker = sim.NewTicker(g.eng, g.cfg.Period, g.push)
	g.pullTicker = sim.NewTicker(g.eng, PullEvery*g.cfg.Period, g.pull)
}

// Stop halts periodic pushes and pulls.
func (g *Gossip) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
	if g.pullTicker != nil {
		g.pullTicker.Stop()
		g.pullTicker = nil
	}
}

// expired reports whether a stamp has aged out under MaxAge.
func expired(stamp, now simtime.Time) bool { return now.Sub(stamp) > MaxAge }

// compose re-probes the daemon's own sample and assembles the bounded
// outgoing window: the fresh self entry plus the most recently refreshed
// live entries off the recency ring, up to WindowLen total. Stale ring
// slots (an origin refreshed again later, or an entry past MaxAge) are
// skipped; expired cells encountered on the walk are reclaimed. The slice
// is allocated per call because it escapes into the in-flight message.
func (g *Gossip) compose(now simtime.Time) []gossipEntryWire {
	if g.probe != nil {
		g.self = GossipEntry{Sample: g.probe(), Stamp: now, Known: true}
	} else {
		g.self = GossipEntry{Stamp: now, Known: true}
	}
	max := g.cfg.WindowLen
	if m := g.cells.len() + 1; m < max {
		max = m
	}
	out := make([]gossipEntryWire, 0, max)
	out = append(out, gossipEntryWire{Origin: g.id, Entry: g.self})
	span := int64(len(g.ring))
	if g.ringN < span {
		span = g.ringN
	}
	for k := int64(1); k <= span && len(out) < g.cfg.WindowLen; k++ {
		pos := g.ringN - k
		o := int(g.ring[pos%int64(len(g.ring))])
		h := g.cells.find(o)
		if h < 0 || g.cells.at(h).ringPos != pos {
			continue // origin refreshed since (a newer slot covers it) or reclaimed
		}
		c := g.cells.at(h)
		if expired(c.entry.Stamp, now) {
			g.drop(h)
			continue
		}
		out = append(out, gossipEntryWire{Origin: o, Entry: c.entry})
	}
	return out
}

// pickPeers selects k distinct random peers (never the daemon itself) by
// rejection sampling into a reused scratch slice. One round's fanout never
// lands on the same peer twice, so configured fanout is always realised.
func (g *Gossip) pickPeers(k int) []int {
	if k > g.n-1 {
		k = g.n - 1
	}
	ps := g.peerScratch[:0]
	for len(ps) < k {
		dst := g.rng.Intn(g.n)
		if dst == g.id {
			continue
		}
		dup := false
		for _, p := range ps {
			if p == dst {
				dup = true
				break
			}
		}
		if !dup {
			ps = append(ps, dst)
		}
	}
	g.peerScratch = ps
	return ps
}

// push composes the outgoing window and hands it to Fanout distinct random
// peers, each after a scheduling delay. The vector is stamped at
// composition time, as the paired daemon stamps its payload.
func (g *Gossip) push() {
	snapshot := g.compose(g.eng.Now())
	if g.n <= 1 {
		return
	}
	size := MsgBytes + EntryBytes*int64(len(snapshot))
	msg := gossipMsg{From: g.id, Entries: snapshot}
	for _, dst := range g.pickPeers(g.cfg.Fanout) {
		dst := dst
		g.eng.Schedule(g.schedDelay(), func() {
			g.send(dst, netmodel.Message{Size: size, Payload: msg})
		})
	}
}

// pull runs one anti-entropy round: ask a single random peer for its
// current window. The response is an ordinary gossipMsg, merged like any
// push — so a partitioned or late-joining daemon converges within a
// bounded number of pull rounds once connectivity is back, even when the
// push windows alone would starve it.
func (g *Gossip) pull() {
	if g.n <= 1 {
		return
	}
	dst := g.pickPeers(1)[0]
	msg := gossipPullMsg{From: g.id}
	g.eng.Schedule(g.schedDelay(), func() {
		g.send(dst, netmodel.Message{Size: MsgBytes, Payload: msg})
	})
}

// handle consumes gossip traffic delivered to this node; merges and pull
// responses run after this side's scheduling delay (the daemon has to be
// woken and run).
func (g *Gossip) handle(payload any) bool {
	switch m := payload.(type) {
	case gossipMsg:
		g.eng.Schedule(g.schedDelay(), func() { g.merge(m) })
		return true
	case gossipPullMsg:
		g.eng.Schedule(g.schedDelay(), func() { g.servePull(m.From) })
		return true
	}
	return false
}

// servePull answers one anti-entropy request with this daemon's window.
func (g *Gossip) servePull(dst int) {
	if dst == g.id || dst < 0 || dst >= g.n {
		return
	}
	snapshot := g.compose(g.eng.Now())
	size := MsgBytes + EntryBytes*int64(len(snapshot))
	g.send(dst, netmodel.Message{Size: size, Payload: gossipMsg{From: g.id, Entries: snapshot}})
}

// merge folds a received window in: newer stamps win, hop counts
// increment, accepted entries move to the head of the recency ring, and
// every accepted entry contributes an age sample to the per-origin
// staleness estimate. Entries already past MaxAge on arrival are not
// resurrected.
func (g *Gossip) merge(m gossipMsg) {
	now := g.eng.Now()
	for _, w := range m.Entries {
		o := w.Origin
		if o == g.id || o < 0 || o >= g.n || !w.Entry.Known {
			continue
		}
		if expired(w.Entry.Stamp, now) {
			continue
		}
		h := g.cells.find(o)
		added := h < 0
		var c *cell
		if added {
			c = g.cells.insert(o)
		} else if c = g.cells.at(h); w.Entry.Stamp <= c.entry.Stamp {
			continue
		}
		e := w.Entry
		e.Hops++
		c.entry = e
		c.ringPos = g.ringN
		g.ring[g.ringN%int64(len(g.ring))] = int32(o)
		g.ringN++
		g.recordAge(c, now.Sub(e.Stamp), added)
	}
	g.maybeSweep(now)
}

// maybeSweep reclaims expired cells once the heard set crosses the sweep
// threshold, then re-arms the threshold at twice the surviving size — an
// amortised-O(1) bound that keeps a daemon's resident heard set within a
// constant factor of the entries actually live under MaxAge. The sweep
// swap-removes in place: a handle is re-examined after a removal, because
// the last cell has just moved into it.
func (g *Gossip) maybeSweep(now simtime.Time) {
	if g.cells.len() < g.sweepAt {
		return
	}
	for h := 0; h < g.cells.len(); {
		if expired(g.cells.at(h).entry.Stamp, now) {
			g.drop(h)
		} else {
			h++
		}
	}
	g.sweepAt = 2 * g.cells.len()
	if g.sweepAt < sweepFloor {
		g.sweepAt = sweepFloor
	}
}

// drop removes the cell under handle h, and its estimate from rttSum.
func (g *Gossip) drop(h int) {
	g.rttSum -= 2 * g.cells.at(h).ageEst
	g.cells.remove(h)
}

// recordAge folds one observed entry age into the origin's EWMA; a just
// added cell takes its first sample as is.
func (g *Gossip) recordAge(c *cell, age simtime.Duration, added bool) {
	if age < 0 {
		age = 0
	}
	old := c.ageEst
	if added {
		c.ageEst = age
	} else {
		c.ageEst = ewma(age, c.ageEst)
	}
	g.rttSum += 2*c.ageEst - 2*old
}

// Entry returns this daemon's current view of origin's load state. An
// entry past MaxAge reads as unknown — local readers see the same expiry
// the wire applies, never unbounded staleness.
func (g *Gossip) Entry(origin int) GossipEntry {
	if origin == g.id {
		return g.self
	}
	h := g.cells.find(origin)
	if h < 0 {
		return GossipEntry{}
	}
	c := g.cells.at(h)
	if expired(c.entry.Stamp, g.eng.Now()) {
		return GossipEntry{}
	}
	return c.entry
}

// Fresh calls f for every live (non-expired) entry this daemon currently
// holds, own entry excluded. Callbacks run in cell-table handle order,
// which is deterministic but shuffled by every removal, so callers must
// apply f per origin without cross-origin dependence (the incremental
// gossip view writes one row per callback, which is order-free).
func (g *Gossip) Fresh(f func(origin int, e GossipEntry)) {
	now := g.eng.Now()
	for h := 0; h < g.cells.len(); h++ {
		c := g.cells.at(h)
		if expired(c.entry.Stamp, now) {
			continue
		}
		f(int(c.origin), c.entry)
	}
}

// KnownCount reports how many origins currently read as live entries.
func (g *Gossip) KnownCount() int {
	n := 0
	now := g.eng.Now()
	for h := 0; h < g.cells.len(); h++ {
		if !expired(g.cells.at(h).entry.Stamp, now) {
			n++
		}
	}
	return n
}

// AgeRTT returns the staleness-derived round-trip estimate for origin
// (2× the smoothed one-way dissemination delay), if any sample arrived.
func (g *Gossip) AgeRTT(origin int) (simtime.Duration, bool) {
	h := g.cells.find(origin)
	if h < 0 {
		return 0, false
	}
	return 2 * g.cells.at(h).ageEst, true
}

// MeanRTT is the mean staleness-derived round-trip estimate over every
// origin heard from; with no samples yet it falls back to the freshly
// joined daemon's prior (two scheduling delays). rttSum is kept in
// integer arithmetic as cells change, so it equals a fresh sum over the
// cells exactly, whatever order they changed in.
func (g *Gossip) MeanRTT() simtime.Duration {
	n := g.cells.len()
	if n == 0 {
		return 2 * SchedDelay
	}
	return g.rttSum / simtime.Duration(n)
}

// Estimates assembles the Eq. 3 inputs this daemon would report for a
// migration originating at origin: the staleness-derived RTT (or the
// prior when nothing has been heard) and the one-page transfer time at
// the estimated bandwidth.
func (g *Gossip) Estimates(origin int) core.Estimates {
	rtt, ok := g.AgeRTT(origin)
	if !ok {
		rtt = 2 * SchedDelay
	}
	return core.Estimates{RTT: rtt, PageTransfer: g.pageTransfer()}
}

package infod

import "ampom/internal/simtime"

// refCell is a frozen copy of the original map-held cell, with its own
// have-an-age-sample flag.
type refCell struct {
	entry   GossipEntry
	ageEst  simtime.Duration
	haveAge bool
	ringPos int64
}

// refGossip is a frozen copy of the original map-based heard set — a
// map[int]*refCell plus the recency ring — with the daemon logic that
// reads and writes it: merge, the window composer's ring-walk reclaim, the
// amortised expiry sweep, Entry, AgeRTT, MeanRTT, KnownCount and Fresh.
// It is the differential oracle for the flat cell table: FuzzGossipTable
// checks that a daemon and this reference agree on every read after every
// step. Keep it as it is; it pins the model, not the implementation.
type refGossip struct {
	cfg     GossipConfig
	id, n   int
	self    GossipEntry
	cells   map[int]*refCell
	ring    []int32
	ringN   int64
	sweepAt int
}

// newRefGossip mirrors NewGossip's heard-set setup for node id of n.
func newRefGossip(cfg GossipConfig, id, n int) *refGossip {
	ringCap := 4 * cfg.WindowLen
	if ringCap < sweepFloor {
		ringCap = sweepFloor
	}
	return &refGossip{
		cfg:     cfg,
		id:      id,
		n:       n,
		cells:   make(map[int]*refCell),
		ring:    make([]int32, ringCap),
		sweepAt: sweepFloor,
	}
}

func (g *refGossip) expired(stamp, now simtime.Time) bool {
	return MaxAge > 0 && now.Sub(stamp) > MaxAge
}

// compose is Gossip.compose with no load probe installed.
func (g *refGossip) compose(now simtime.Time) []gossipEntryWire {
	g.self = GossipEntry{Stamp: now, Known: true}
	max := g.cfg.WindowLen
	if m := len(g.cells) + 1; m < max {
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
		c, ok := g.cells[o]
		if !ok || c.ringPos != pos {
			continue
		}
		if g.expired(c.entry.Stamp, now) {
			delete(g.cells, o)
			continue
		}
		out = append(out, gossipEntryWire{Origin: o, Entry: c.entry})
	}
	return out
}

func (g *refGossip) merge(m gossipMsg, now simtime.Time) {
	for _, w := range m.Entries {
		o := w.Origin
		if o == g.id || o < 0 || o >= g.n || !w.Entry.Known {
			continue
		}
		if g.expired(w.Entry.Stamp, now) {
			continue
		}
		c, ok := g.cells[o]
		if ok && w.Entry.Stamp <= c.entry.Stamp {
			continue
		}
		if !ok {
			c = &refCell{}
			g.cells[o] = c
		}
		e := w.Entry
		e.Hops++
		c.entry = e
		c.ringPos = g.ringN
		g.ring[g.ringN%int64(len(g.ring))] = int32(o)
		g.ringN++
		g.recordAge(c, now.Sub(e.Stamp))
	}
	g.maybeSweep(now)
}

func (g *refGossip) maybeSweep(now simtime.Time) {
	if MaxAge <= 0 || len(g.cells) < g.sweepAt {
		return
	}
	for o, c := range g.cells {
		if g.expired(c.entry.Stamp, now) {
			delete(g.cells, o)
		}
	}
	g.sweepAt = 2 * len(g.cells)
	if g.sweepAt < sweepFloor {
		g.sweepAt = sweepFloor
	}
}

func (g *refGossip) recordAge(c *refCell, age simtime.Duration) {
	if age < 0 {
		age = 0
	}
	if !c.haveAge {
		c.ageEst = age
		c.haveAge = true
		return
	}
	a := Alpha
	c.ageEst = simtime.Duration(a*float64(age) + (1-a)*float64(c.ageEst))
}

func (g *refGossip) entry(origin int, now simtime.Time) GossipEntry {
	if origin == g.id {
		return g.self
	}
	c, ok := g.cells[origin]
	if !ok || g.expired(c.entry.Stamp, now) {
		return GossipEntry{}
	}
	return c.entry
}

func (g *refGossip) fresh(now simtime.Time, f func(origin int, e GossipEntry)) {
	for o, c := range g.cells {
		if g.expired(c.entry.Stamp, now) {
			continue
		}
		f(o, c.entry)
	}
}

func (g *refGossip) knownCount(now simtime.Time) int {
	n := 0
	for _, c := range g.cells {
		if !g.expired(c.entry.Stamp, now) {
			n++
		}
	}
	return n
}

func (g *refGossip) ageRTT(origin int) (simtime.Duration, bool) {
	c, ok := g.cells[origin]
	if !ok || !c.haveAge {
		return 0, false
	}
	return 2 * c.ageEst, true
}

func (g *refGossip) meanRTT() simtime.Duration {
	var sum simtime.Duration
	n := 0
	for _, c := range g.cells {
		if c.haveAge {
			sum += 2 * c.ageEst
			n++
		}
	}
	if n == 0 {
		return 2 * SchedDelay
	}
	return sum / simtime.Duration(n)
}

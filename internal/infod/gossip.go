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
// pairing. Alongside the periodic pushes, each daemon runs slower
// anti-entropy pull rounds: it asks one random peer for that peer's
// current window, which heals partitions and brings late joiners up to
// date even when pushes alone would starve them.
//
// Storage is compact, sized once per job and reused: a scenario job's
// policy simulations share one plane, and each run after the first
// re-initialises every daemon in place (Reinit) instead of building the
// plane again. Samples are interned: each origin appends every sample it
// composes (load, queue, memory, stamp and a sequence number) to its own
// small ring in the plane's SampleStore, and cells and wire entries name
// a sample by origin and sequence number next to its stamp. merge,
// compose, the sweeps and every expiry check work from the stamp alone;
// only Fresh and Entry read another origin's ring, and they run on the
// sequential engine or in the global phase, with every shard paused at
// one instant, so the rings need no atomics (see sampleRing). A daemon keeps only the origins it has actually heard
// from (a flat cell table — dense pointer-free 32-byte cells behind an
// open-addressed index of 4-byte keys, see cellTable), never a dense
// length-n vector, so the whole gossip plane is O(n·l·retention)
// resident rather than O(n²). NewGossip reserves the index for the heard
// set the config implies,
// min(n-1, l·(Fanout + 1/PullEvery)·MaxAge/Period) origins, so in steady
// state it never grows; a daemon that hears more still grows it. Nothing
// reads the index in slot order — reads walk cell handles — so its size
// cannot change a result. Rings hold queue length and memory in 32 bits,
// and a sample that does not fit panics rather than being truncated (see
// narrow).
//
// A recency ring of cell handles orders the cells by last refresh. Each
// cell records its slot. A refresh clears the cell's previous slot and
// writes its handle at the ring head, whose previous occupant falls off
// the ring; removing a cell clears its slot and relabels the slot of the
// cell swap-removal moves. So every non-empty slot names the live cell
// last refreshed there, and the window composer reads cells straight off
// the ring, with no index lookup.
//
// Deferred steps are pooled. Push's and pull's sends, and the merge or
// pull answer a delivery schedules, each run from an action record off the
// daemon's own pool, with its callback built once per record, and a pull
// request is the daemon's one immutable gossipPullMsg. A record is taken
// and returned on its own daemon's engine, so under the sharded engine no
// pool crosses a shard.
//
// Windows are recycled by the daemon that composed them. The buffer of one
// outgoing window is shared by every copy sent, and its receiver count is
// set at send time; each receiver decrements it atomically once its merge
// has read the entries. The composer keeps its last few buffers and
// composes into one whose count is back at zero, or into a new one. A
// buffer never changes hands, so no list crosses shards, the count is the
// one cross-shard word, and a daemon holds only the few buffers it has in
// flight at once. (A buffer passed on to its last receiver would drift
// between daemons, and one that gave away more than it took in would keep
// allocating.) A copy lost on the way (a down link, a dropped message)
// leaves the count above zero; the buffer is never reused, and leaves the
// kept set once keptWindows newer ones replace it.
//
// A gossip round allocates nothing once the pools are warm.
package infod

import (
	"fmt"
	"sync/atomic"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
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
}

// gossipEntryWire is one entry on the wire, in 16 bytes: the stamp of
// the origin's sample and its sequence number in the origin's ring, which
// holds the values. The modelled wire size, EntryBytes, is what a real
// entry with its values would take. Every composed entry is a known one,
// so the wire carries no presence flag.
type gossipEntryWire struct {
	Stamp  simtime.Time
	Origin int32
	Seq    uint32
}

// MaxGossipNodes is the largest cluster a gossip plane serves: the cell
// index packs an origin and a handle into 16 bits each.
const MaxGossipNodes = 1 << 16

// narrow returns v in 32 bits, and panics when it does not fit: a sample
// is never truncated. scenario.Spec.Validate bounds every node's resident
// memory, and with it its queue length, below math.MaxInt32, so the panic
// marks a program bug, never a user input.
func narrow(v int64, what string) int32 {
	if v != int64(int32(v)) {
		panic(fmt.Sprintf("infod: %s %d does not fit in 32 bits", what, v))
	}
	return int32(v)
}

// gossipMsg is one composed window, sent as a load-vector push or a pull
// response (the receiver merges both identically). Every copy of a send
// shares one gossipMsg; receivers counts the copies whose merge is still
// to run, and the composer reuses the buffer once it is zero.
type gossipMsg struct {
	Entries   []gossipEntryWire
	receivers atomic.Int32
}

// gossipPullMsg is one anti-entropy pull request: the receiver replies to
// From with its own current window. Each daemon builds its one request
// when it is made and sends that same pointer on every pull; it is never
// written again, so any shard may read it.
type gossipPullMsg struct {
	From int
}

// action is one deferred daemon step, pooled per daemon:
//
//   - a send (send set): push's copy of a window to one peer, or pull's
//     request, handed to the daemon's send hook for peer;
//   - a delivery: the merge of a received window, or the answer to a
//     received pull request, whichever msg.Payload is.
//
// Its run callback is built once, when the record is made, and the record
// goes back to its daemon's pool as run starts. Push and pull take their
// records on the sending daemon's engine, handle takes its on the
// receiving daemon's, and each runs where it was scheduled, so under the
// sharded engine no pool ever crosses a shard.
type action struct {
	send bool
	peer int
	msg  netmodel.Message
	run  func()
}

const (
	// sweepFloor is the minimum heard-set size before expiry sweeps
	// trigger.
	sweepFloor = 64
	// keptWindows caps the window buffers a daemon keeps for reuse.
	keptWindows = 4
)

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

	// store holds every origin's sample ring, and own is this daemon's;
	// cells holds only origins actually heard from. ring is a circular buffer of cell handles+1 (0
	// marks an empty slot) in refresh order, ringN total appends; a cell
	// and the ring slot it records name each other, so the window composer
	// walks the ring newest-first and reads each cell directly. sweepAt is
	// the heard-set size that triggers the next amortised expiry sweep.
	// rttSum is the sum of 2×ageEst over every cell, kept in step by
	// recordAge and drop. windows holds the window buffers this daemon
	// composed last, oldest first, which compose reuses.
	store   *SampleStore
	own     *sampleRing
	cells   cellTable
	ring    []int32
	ringN   int64
	sweepAt int
	rttSum  simtime.Duration
	windows []*gossipMsg

	pullMsg *gossipPullMsg // this daemon's one pull request
	actions []*action      // this daemon's idle action records

	// least memoises LeastLoaded: its answer holds while the clock reads
	// least.at and no merge has refreshed a cell since (ringN equals
	// least.ringN).
	least leastMemo

	peerScratch []int
}

// leastMemo is one LeastLoaded answer and the daemon state it holds for:
// the instant and the refresh count. ringN starts at -1, which no daemon
// state matches.
type leastMemo struct {
	at     simtime.Time
	ringN  int64
	load   float64
	origin int32 // -1: no live entry
}

// NewGossip creates the gossip daemon of node id in the cluster whose
// gossip plane shares store, one ring per node, and opens the daemon's
// sample ring there. send routes one message to a peer (the fabric's
// topology path); seed drives the daemon's jitter and peer-selection
// stream. The daemon registers its message handler on the node; call
// Start to begin pushing. It panics unless every cfg field is positive,
// when the cluster has more than MaxGossipNodes nodes, or when node id
// has a daemon already.
func NewGossip(cfg GossipConfig, store *SampleStore, node *cluster.Node, id int, nominalBw float64, send func(dst int, m netmodel.Message), seed uint64) *Gossip {
	if cfg.Period <= 0 || cfg.Fanout <= 0 || cfg.WindowLen <= 0 {
		panic(fmt.Sprintf("infod: non-positive gossip config %+v", cfg))
	}
	n := len(store.rings)
	if n > MaxGossipNodes {
		panic(fmt.Sprintf("infod: %d-node gossip plane, above %d", n, MaxGossipNodes))
	}
	ringCap := 4 * cfg.WindowLen
	if ringCap < sweepFloor {
		ringCap = sweepFloor
	}
	g := &Gossip{
		cfg:     cfg,
		id:      id,
		n:       n,
		store:   store,
		own:     store.open(id, ringLen(cfg)),
		ring:    make([]int32, ringCap),
		windows: make([]*gossipMsg, 0, keptWindows),
		pullMsg: &gossipPullMsg{From: id},
	}
	g.cells.reserve(expectedHeard(cfg, n))
	g.bind(node, nominalBw, send, prng.New(seed))
	return g
}

// Reinit puts a daemon whose run has ended back in the state
// NewGossip(cfg, its store, node, id, nominalBw, send, seed) gives a new
// one, keeping its storage: the heard set empties but keeps its cell
// chunks and its index, whatever size the index grew to (reads never
// walk index slots, so its size never changes a result), and its sample
// ring empties at its size. Every kept window's receiver count goes back
// to zero: copies still in flight when the daemon's last run stopped
// died with that run's engine. Each daemon empties only its own ring, so
// every daemon of the plane is re-initialised before any of them starts
// again. It panics unless cfg and id are the ones the daemon was made
// with.
func (g *Gossip) Reinit(cfg GossipConfig, node *cluster.Node, id int, nominalBw float64, send func(dst int, m netmodel.Message), seed uint64) {
	if cfg != g.cfg || id != g.id {
		panic(fmt.Sprintf("infod: daemon %d %+v re-initialised as daemon %d %+v", g.id, g.cfg, id, cfg))
	}
	g.empty()
	g.rng.Reseed(seed)
	g.bind(node, nominalBw, send, g.rng)
}

// empty empties the daemon's sample ring, heard set and recency ring and
// frees its kept windows, keeping all of their storage.
func (g *Gossip) empty() {
	g.own.clear()
	g.cells.clear()
	clear(g.ring)
	for _, m := range g.windows {
		m.receivers.Store(0)
	}
}

// bind attaches the daemon to one run: node, its engine and NIC, the send
// path and the random stream rng, with the handler registered on node,
// and resets everything a run counts from zero.
func (g *Gossip) bind(node *cluster.Node, nominalBw float64, send func(dst int, m netmodel.Message), rng *prng.Source) {
	g.estimator = newEstimator(node, nominalBw, rng)
	g.send = send
	g.probe, g.ticker, g.pullTicker = nil, nil, nil
	g.ringN, g.sweepAt, g.rttSum = 0, sweepFloor, 0
	g.least = leastMemo{ringN: -1}
	node.Handle(g.handle)
}

// expectedHeard is the heard set a daemon of an n-node cluster is sized
// for: each period it merges Fanout pushes and 1/PullEvery of a pull
// answer, each carrying up to WindowLen origins, and an origin it heard
// stays held for MaxAge, so it holds at most
// WindowLen·(Fanout + 1/PullEvery)·MaxAge/Period origins, and never more
// than its n-1 peers. It is a size, not a limit: a daemon that hears more
// grows its index.
func expectedHeard(cfg GossipConfig, n int) int {
	perPeriod := float64(cfg.WindowLen) * (float64(cfg.Fanout) + 1.0/PullEvery)
	return int(min(float64(n-1), perPeriod*float64(MaxAge)/float64(cfg.Period)))
}

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

// compose re-probes the daemon's own sample, appends it to the daemon's
// sample ring and assembles the bounded outgoing window into a reused
// buffer: the fresh self entry plus the most recently refreshed live
// entries off the recency ring, up to WindowLen total. Empty ring slots
// (a cell refreshed again later, or reclaimed) are skipped; expired cells
// encountered on the walk are reclaimed.
func (g *Gossip) compose(now simtime.Time) *gossipMsg {
	var s LoadSample
	if g.probe != nil {
		s = g.probe()
	}
	seq := g.own.put(sample{
		load:  s.Load,
		stamp: now,
		queue: narrow(int64(s.Queue), "queue length"),
		mem:   narrow(s.UsedMemMB, "resident memory MB"),
	}, now)
	m := g.window()
	out := append(m.Entries[:0], gossipEntryWire{Stamp: now, Origin: int32(g.id), Seq: seq})
	span := int64(len(g.ring))
	if g.ringN < span {
		span = g.ringN
	}
	for k := int64(1); k <= span && len(out) < g.cfg.WindowLen; k++ {
		v := g.ring[(g.ringN-k)%int64(len(g.ring))]
		if v == 0 {
			continue
		}
		h := int(v - 1)
		c := g.cells.at(h)
		if expired(c.stamp, now) {
			g.drop(h)
			continue
		}
		out = append(out, c.wire())
	}
	m.Entries = out
	return m
}

// window returns a kept buffer every copy of which has been merged, or
// allocates one and keeps it in place of the oldest once keptWindows are
// kept. The atomic load that reads zero orders this daemon's writes after
// every receiver's reads.
func (g *Gossip) window() *gossipMsg {
	for _, m := range g.windows {
		if m.receivers.Load() == 0 {
			return m
		}
	}
	m := &gossipMsg{Entries: make([]gossipEntryWire, 0, g.cfg.WindowLen)}
	if len(g.windows) == keptWindows {
		g.windows = append(g.windows[:0], g.windows[1:]...)
	}
	g.windows = append(g.windows, m)
	return m
}

// action takes an idle action record off the pool, or builds one and its
// run callback.
func (g *Gossip) action() *action {
	if k := len(g.actions); k > 0 {
		a := g.actions[k-1]
		g.actions = g.actions[:k-1]
		return a
	}
	a := &action{}
	a.run = func() { g.act(a) }
	return a
}

// deferSend schedules one send of msg to peer after a scheduling delay.
func (g *Gossip) deferSend(peer int, msg netmodel.Message) {
	a := g.action()
	a.send, a.peer, a.msg = true, peer, msg
	g.eng.Schedule(g.schedDelay(), a.run)
}

// act runs a, returning it to the pool first.
func (g *Gossip) act(a *action) {
	send, peer, msg := a.send, a.peer, a.msg
	a.msg = netmodel.Message{}
	g.actions = append(g.actions, a)
	if send {
		g.send(peer, msg)
		return
	}
	switch p := msg.Payload.(type) {
	case *gossipMsg:
		g.merge(p)
	case *gossipPullMsg:
		g.servePull(p.From)
	}
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
	m := g.compose(g.eng.Now())
	if g.n <= 1 {
		return
	}
	peers := g.pickPeers(g.cfg.Fanout)
	m.receivers.Store(int32(len(peers)))
	msg := netmodel.Message{Size: MsgBytes + EntryBytes*int64(len(m.Entries)), Payload: m}
	for _, dst := range peers {
		g.deferSend(dst, msg)
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
	g.deferSend(g.pickPeers(1)[0], netmodel.Message{Size: MsgBytes, Payload: g.pullMsg})
}

// handle consumes gossip traffic delivered to this node; merges and pull
// responses run after this side's scheduling delay (the daemon has to be
// woken and run).
func (g *Gossip) handle(payload any) bool {
	switch payload.(type) {
	case *gossipMsg, *gossipPullMsg:
		a := g.action()
		a.send, a.msg = false, netmodel.Message{Payload: payload}
		g.eng.Schedule(g.schedDelay(), a.run)
		return true
	}
	return false
}

// servePull answers one anti-entropy request with this daemon's window.
func (g *Gossip) servePull(dst int) {
	if dst == g.id || dst < 0 || dst >= g.n {
		return
	}
	m := g.compose(g.eng.Now())
	m.receivers.Store(1)
	size := MsgBytes + EntryBytes*int64(len(m.Entries))
	g.send(dst, netmodel.Message{Size: size, Payload: m})
}

// merge folds a received window in: newer stamps win, accepted entries
// move to the head of the recency ring, and every accepted entry
// contributes an age sample to the per-origin staleness estimate. Entries
// already past MaxAge on arrival are not resurrected. Once the entries are
// read, the merge releases its copy of the window to the composer.
func (g *Gossip) merge(m *gossipMsg) {
	now := g.eng.Now()
	for i := range m.Entries {
		w := &m.Entries[i]
		o := int(w.Origin)
		if o == g.id || o < 0 || o >= g.n || expired(w.Stamp, now) {
			continue
		}
		h := g.cells.find(o)
		added := h < 0
		if added {
			h = g.cells.insert(o)
		} else if w.Stamp <= g.cells.at(h).stamp {
			continue
		}
		c := g.cells.at(h)
		c.stamp, c.seq = w.Stamp, w.Seq
		g.refresh(h, c)
		g.recordAge(c, now.Sub(w.Stamp), added)
	}
	m.receivers.Add(-1)
	g.maybeSweep(now)
}

// refresh moves cell h to the head of the recency ring: it clears the
// cell's previous slot, takes the head slot from whichever cell held it
// (that cell falls off the ring), and records the new slot in the cell.
func (g *Gossip) refresh(h int, c *cell) {
	if c.slot != 0 {
		g.ring[c.slot-1] = 0
	}
	s := g.ringN % int64(len(g.ring))
	if v := g.ring[s]; v != 0 {
		g.cells.at(int(v - 1)).slot = 0
	}
	g.ring[s] = int32(h + 1)
	c.slot = int32(s + 1)
	g.ringN++
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
		if expired(g.cells.at(h).stamp, now) {
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

// drop removes the cell under handle h: its ring slot and its estimate
// in rttSum go with it, and the cell swap-removal moves into h takes its
// ring slot along.
func (g *Gossip) drop(h int) {
	c := g.cells.at(h)
	g.rttSum -= 2 * c.ageEst
	if c.slot != 0 {
		g.ring[c.slot-1] = 0
	}
	g.cells.remove(h)
	if h < g.cells.len() {
		if s := g.cells.at(h).slot; s != 0 {
			g.ring[s-1] = int32(h + 1)
		}
	}
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

// Entry returns this daemon's current view of origin's load state, and
// whether it holds one; its own entry, its latest composed sample (zero
// before the first), is always held. An entry past MaxAge reads as not
// held — local readers see the same expiry the wire applies, never
// unbounded staleness. It reads origin's sample ring, so under the
// sharded engine it may run only in the global phase.
func (g *Gossip) Entry(origin int) (GossipEntry, bool) {
	if origin == g.id {
		if g.own.last == 0 {
			return GossipEntry{}, true
		}
		return g.own.at(g.own.last).entry(), true
	}
	h := g.cells.find(origin)
	if h < 0 {
		return GossipEntry{}, false
	}
	c := g.cells.at(h)
	if expired(c.stamp, g.eng.Now()) {
		return GossipEntry{}, false
	}
	return g.sampleOf(c), true
}

// sampleOf reads the sample c names out of its origin's ring.
func (g *Gossip) sampleOf(c *cell) GossipEntry {
	return g.store.rings[c.origin].at(c.seq).entry()
}

// Fresh calls f for every live (non-expired) entry this daemon currently
// holds, own entry excluded. Callbacks run in cell-table handle order,
// which is deterministic but shuffled by every removal, so callers must
// apply f per origin without cross-origin dependence (LeastLoaded breaks
// load ties by origin, so its answer is order-free). Each
// entry's values come from its origin's sample ring, so under the sharded
// engine Fresh may run only in the global phase.
func (g *Gossip) Fresh(f func(origin int, e GossipEntry)) {
	now := g.eng.Now()
	for h := 0; h < g.cells.len(); h++ {
		c := g.cells.at(h)
		if expired(c.stamp, now) {
			continue
		}
		f(int(c.origin), g.sampleOf(c))
	}
}

// LeastLoaded returns the live entry with the lowest load, own entry
// excluded, lowest origin on ties, and whether there is one. The answer
// is memoised until the daemon's clock moves or a merge refreshes a cell:
// every change to a live cell's sample passes through refresh, which
// counts in ringN, and the expiry that removes a cell from the live set
// moves only with the clock. It scans with Fresh, so under the sharded
// engine it may run only in the global phase.
func (g *Gossip) LeastLoaded() (origin int, load float64, ok bool) {
	m := &g.least
	if now := g.eng.Now(); m.at != now || m.ringN != g.ringN {
		m.at, m.ringN, m.origin, m.load = now, g.ringN, -1, 0
		g.Fresh(func(o int, e GossipEntry) {
			if l := e.Sample.Load; m.origin < 0 || l < m.load || (l == m.load && int32(o) < m.origin) {
				m.origin, m.load = int32(o), l
			}
		})
	}
	return int(m.origin), m.load, m.origin >= 0
}

// KnownCount reports how many origins currently read as live entries.
func (g *Gossip) KnownCount() int {
	n := 0
	now := g.eng.Now()
	for h := 0; h < g.cells.len(); h++ {
		if !expired(g.cells.at(h).stamp, now) {
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

package infod

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// tableGossip builds an unstarted daemon (node id of n) whose clock the
// caller drives with AdvanceTo and whose merge/compose the caller invokes
// directly; it sends nothing.
func tableGossip(cfg GossipConfig, id, n int) (*sim.Engine, *Gossip) {
	eng := sim.New()
	node := cluster.NewNode(eng, "g", 1)
	return eng, NewGossip(cfg, NewSampleStore(n), node, id, 11.36e6, func(int, netmodel.Message) {}, 1)
}

// tablePlane builds n unstarted daemons, as tableGossip does, sharing
// one sample store, each on its own engine.
func tablePlane(cfg GossipConfig, n int) ([]*sim.Engine, []*Gossip) {
	store := NewSampleStore(n)
	engs, g := make([]*sim.Engine, n), make([]*Gossip, n)
	for i := range g {
		engs[i] = sim.New()
		g[i] = NewGossip(cfg, store, cluster.NewNode(engs[i], "g", 1), i, 11.36e6, func(int, netmodel.Message) {}, 1)
	}
	return engs, g
}

// checkTable asserts the heard set's invariants. The cell table: every
// handle is reachable from its origin through the index, the index holds
// exactly one slot per cell, and each index key's origin is its cell's
// origin. The recency ring: each non-empty slot names a live handle whose
// cell records that slot, no handle appears twice, and every cell that
// records a slot is named there.
func checkTable(t *testing.T, g *Gossip) {
	t.Helper()
	ct := &g.cells
	for h := 0; h < ct.len(); h++ {
		if got := ct.find(int(ct.at(h).origin)); got != h {
			t.Fatalf("origin %d under handle %d finds handle %d", ct.at(h).origin, h, got)
		}
	}
	used := 0
	for i, k := range ct.index {
		if k == 0 {
			continue
		}
		used++
		if h := keyHandle(k); h < 0 || h >= ct.len() || ct.at(h).origin != keyOrigin(k) {
			t.Fatalf("index slot %d keys origin %d to handle %d, which is not that origin's live cell", i, keyOrigin(k), h)
		}
	}
	if used != ct.len() {
		t.Fatalf("index holds %d slots for %d cells", used, ct.len())
	}
	seen := make(map[int32]int)
	for s, v := range g.ring {
		if v == 0 {
			continue
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("handle %d sits in ring slots %d and %d", v-1, prev, s)
		}
		seen[v] = s
		if h := int(v - 1); h >= ct.len() || ct.at(h).slot != int32(s+1) {
			t.Fatalf("ring slot %d names handle %d, which does not record that slot", s, h)
		}
	}
	for h := 0; h < ct.len(); h++ {
		if s := ct.at(h).slot; s != 0 && g.ring[s-1] != int32(h+1) {
			t.Fatalf("handle %d records ring slot %d, which holds %d", h, s-1, g.ring[s-1])
		}
	}
}

// gossipScript builds FuzzGossipTable seeds op by op.
type gossipScript []byte

// merge appends a window of explicit (origin, age byte) entries.
func (s gossipScript) merge(pairs ...[2]int) gossipScript {
	s = append(s, byte(4*(len(pairs)-1)))
	for _, p := range pairs {
		s = append(s, byte(p[0]>>8), byte(p[0]), byte(p[1]))
	}
	return s
}

// run appends a window of k (1..64) consecutive origins from start*n/256,
// the i-th aged by age byte age+i.
func (s gossipScript) run(k, start, age int) gossipScript {
	return append(s, byte(4*(k-1)+1), byte(start), byte(age))
}

func (s gossipScript) compose() gossipScript { return append(s, 2) }

// advance moves the clock by k/16 of fuzzAgeUnit (k < 64).
func (s gossipScript) advance(k int) gossipScript { return append(s, byte(4*k+3)) }

// fuzzAgeUnit scales the script's ages and clock steps: MaxAge.
const fuzzAgeUnit = MaxAge

// scriptRingLen is the ring a script's origins start with: short, so
// scripts wrap it and grow it.
const scriptRingLen = 4

// scriptEntry decodes one window entry of g's script and composes its
// sample in the origin's ring of g's store, as that origin's daemon
// would: its age is (ageByte-16)/64 of fuzzAgeUnit, so an age byte past
// 80 is already past MaxAge on arrival and one below 16 is stamped in the
// future. Loads repeat every five origins, so LeastLoaded meets ties. An
// entry of g's own origin, which merge skips, composes nothing. It
// returns the wire entry and the sample it names.
func scriptEntry(g *Gossip, origin int, ageByte byte, now simtime.Time) (gossipEntryWire, LoadSample) {
	age := simtime.Duration(int64(ageByte)-16) * fuzzAgeUnit / 64
	w := gossipEntryWire{Stamp: now.Add(-age), Origin: int32(origin)}
	s := LoadSample{Load: float64(origin % 5), Queue: int(ageByte), UsedMemMB: int64(origin) * 3}
	if origin == g.id {
		return w, s
	}
	r := &g.store.rings[origin]
	if r.slots == nil {
		r = g.store.open(origin, scriptRingLen)
	}
	w.Seq = r.put(sample{load: s.Load, stamp: w.Stamp, queue: int32(s.Queue), mem: int32(s.UsedMemMB)}, now)
	return w, s
}

// FuzzGossipTable drives a daemon's heard set through a script of merged
// windows, window compositions and clock advances, and after every step
// checks each read against the frozen map-based reference: Entry and
// AgeRTT for every origin, MeanRTT, KnownCount, the composed window, the
// Fresh set and LeastLoaded, whose memo a merge or a clock advance must
// void. Ages reach past MaxAge and the clock jumps by up to four
// MaxAges, so both the compose ring-walk reclaim and the amortised sweep
// fire. Each window entry's origin composes its sample into its own
// scriptRingLen-slot ring first, so origins that repeat within MaxAge
// grow their rings and origins that repeat after it wrap them; Entry and
// Fresh read the samples back out of those rings.
//
// The reserve input picks the table the script starts from: zero an
// empty one, whose index heard sets of up to 512 origins grow through
// several doublings, and otherwise one reserved for reserve%1024 origins,
// as NewGossip reserves it, which a script grows only past that.
//
// Script ops, each led by one byte op:
//   - op%4 == 0 merges a window of op/4%16+1 explicit entries, three bytes
//     each: origin high, origin low, age byte;
//   - op%4 == 1 merges a run of op/4+1 consecutive origins, two bytes:
//     start (the run begins at origin start*n/256) and the first age byte,
//     which rises by 1 per entry;
//   - op%4 == 2 composes the outgoing window;
//   - op%4 == 3 advances the clock by (op/4)/16 of fuzzAgeUnit.
//
// Runs keep scripts short: the fuzzer's minimiser is quadratic in input
// length.
func FuzzGossipTable(f *testing.F) {
	// Runs over 300 origins at mixed ages. The first sweep fires at 64
	// cells with handles 47..62 expired, so swap-removal keeps moving
	// expired cells into the handle just freed; later runs add reclaims
	// and grow the index to 512 slots.
	grow := gossipScript{}.
		run(32, 0, 16).run(31, 128, 50).advance(4).run(1, 200, 16).
		run(64, 64, 16).compose().advance(12).run(64, 160, 20).compose().
		advance(20).compose().run(64, 0, 16).advance(40).compose().run(64, 100, 0)
	f.Add(uint16(300), uint8(0), uint16(0), []byte(grow))
	f.Add(uint16(300), uint8(8), uint16(0), []byte(grow))

	// Index wraparound: three origins whose home is the last slot of the
	// 64-slot index and one whose home is slot 0 fill slots 63, 0, 1 and 2.
	// Reclaiming the first (it arrives nearly expired) shifts the other
	// three back across the end of the index; the later merges and reads
	// must still find every one of them.
	wrap := cellTable{shift: 64 - 6}
	var last, first []int
	for o := 0; len(last) < 3 || len(first) < 1; o++ {
		switch wrap.home(int32(o)) {
		case 63:
			last = append(last, o)
		case 0:
			first = append(first, o)
		}
	}
	seed := gossipScript{}.
		merge([2]int{last[0], 16 + 60}).
		merge([2]int{last[1], 16}, [2]int{first[0], 16}, [2]int{last[2], 16}).
		advance(4).compose().
		merge([2]int{last[1], 16}, [2]int{first[0], 16}, [2]int{last[2], 16}, [2]int{last[0], 16}).
		advance(40).compose()
	f.Add(uint16(last[2]+2), uint8(8), uint16(0), []byte(seed))

	// The grow script over a table reserved as NewGossip reserves it for
	// 300 nodes (299 origins, 512 slots, never grown), and over one
	// reserved for 40 origins, which the script grows from 64 slots.
	f.Add(uint16(300), uint8(0), uint16(299), []byte(grow))
	f.Add(uint16(300), uint8(8), uint16(40), []byte(grow))

	// Sample rings. Origin 5 composes six live samples in one window, so
	// its 4-slot ring grows to 8 and keeps the first, the newest, which
	// the daemon holds. Two MaxAges later all six have expired, and six
	// more wrap the ring over them without growing it; origin 9 grows its
	// ring to 16 in two windows.
	var six, nine [][2]int
	for i := 0; i < 6; i++ {
		six = append(six, [2]int{5, 16 + i})
		nine = append(nine, [2]int{9, 16 + i}, [2]int{9, 20 - i})
	}
	rings := gossipScript{}.
		merge(six...).compose().advance(2).merge(nine[:6]...).
		advance(32).merge(six...).compose().merge(nine[6:]...).advance(4).compose()
	f.Add(uint16(16), uint8(8), uint16(0), []byte(rings))

	f.Fuzz(func(t *testing.T, nOrigins uint16, windowLen uint8, reserve uint16, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		n := int(nOrigins)%511 + 2
		// A zero window draws the fabric default, as the zero input always
		// has.
		cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: int(windowLen) % 64}
		if cfg.WindowLen == 0 {
			cfg.WindowLen = 32
		}
		id := n - 1
		eng, g := tableGossip(cfg, id, n)
		g.cells = cellTable{}
		if reserve != 0 {
			g.cells.reserve(int(reserve) % 1024)
		}
		ref := newRefGossip(cfg, id, n)
		now := simtime.Time(4 * fuzzAgeUnit)
		eng.AdvanceTo(now)
		fresh := map[int]GossipEntry{}

		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			switch op % 4 {
			case 0:
				k := int(op/4)%16 + 1
				if k > len(script)/3 {
					k = len(script) / 3
				}
				m := &gossipMsg{Entries: make([]gossipEntryWire, k)}
				vals := make([]LoadSample, k)
				for i := range m.Entries {
					b := script[3*i : 3*i+3]
					m.Entries[i], vals[i] = scriptEntry(g, (int(b[0])<<8|int(b[1]))%n, b[2], now)
				}
				script = script[3*k:]
				g.merge(m)
				ref.merge(m, vals, now)
			case 1:
				if len(script) < 2 {
					script = nil
					break
				}
				m := &gossipMsg{Entries: make([]gossipEntryWire, op/4+1)}
				vals := make([]LoadSample, len(m.Entries))
				start := int(script[0]) * n / 256
				for i := range m.Entries {
					m.Entries[i], vals[i] = scriptEntry(g, (start+i)%n, script[1]+byte(i), now)
				}
				script = script[2:]
				g.merge(m)
				ref.merge(m, vals, now)
			case 2:
				m := g.compose(now)
				got, want := m.Entries, ref.compose(now)
				if len(got) != len(want) {
					t.Fatalf("composed %d entries, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("window[%d] = %+v, reference %+v", i, got[i], want[i])
					}
				}
			case 3:
				now = now.Add(simtime.Duration(op/4) * fuzzAgeUnit / 16)
				eng.AdvanceTo(now)
			}

			checkTable(t, g)
			for o := 0; o < n; o++ {
				got, ok := g.Entry(o)
				want := ref.entry(o, now)
				if got != want || ok != (o == id || want != GossipEntry{}) {
					t.Fatalf("Entry(%d) = %+v,%v, reference %+v", o, got, ok, want)
				}
				gr, gok := g.AgeRTT(o)
				rr, rok := ref.ageRTT(o)
				if gr != rr || gok != rok {
					t.Fatalf("AgeRTT(%d) = %v,%v, reference %v,%v", o, gr, gok, rr, rok)
				}
			}
			if got, want := g.MeanRTT(), ref.meanRTT(); got != want {
				t.Fatalf("MeanRTT = %v, reference %v", got, want)
			}
			if got, want := g.KnownCount(), ref.knownCount(now); got != want {
				t.Fatalf("KnownCount = %d, reference %d", got, want)
			}
			clear(fresh)
			g.Fresh(func(o int, e GossipEntry) {
				if _, dup := fresh[o]; dup {
					t.Fatalf("Fresh visits origin %d twice", o)
				}
				fresh[o] = e
			})
			nRef := 0
			ref.fresh(now, func(o int, e GossipEntry) {
				nRef++
				if got, ok := fresh[o]; !ok || got != e {
					t.Fatalf("Fresh(%d) = %+v (present %v), reference %+v", o, got, ok, e)
				}
			})
			if len(fresh) != nRef {
				t.Fatalf("Fresh visits %d origins, reference %d", len(fresh), nRef)
			}
			wantO, wantL := -1, 0.0
			ref.fresh(now, func(o int, e GossipEntry) {
				if l := e.Sample.Load; wantO < 0 || l < wantL || (l == wantL && o < wantO) {
					wantO, wantL = o, l
				}
			})
			if o, l, ok := g.LeastLoaded(); ok != (wantO >= 0) || (ok && (o != wantO || l != wantL)) {
				t.Fatalf("LeastLoaded = %d,%v,%v, reference %d,%v", o, l, ok, wantO, wantL)
			}
		}
	})
}

// TestMergeSteadyStateAllocFree pins what the flat table buys: once a
// daemon's heard set and chunks are stable, merging a window — refreshing
// known origins and re-inserting reclaimed ones — and sweeping the expired
// cells allocates nothing.
func TestMergeSteadyStateAllocFree(t *testing.T) {
	// Three groups of 64 origins. Run r merges groups r%3 and (r+1)%3 at
	// the current instant, 31 s after run r-1: group r%3 was merged at r-1,
	// so it is refreshed in place; group (r+1)%3 was reclaimed at r-1 and
	// is re-inserted; group (r+2)%3, merged at r-1, has just expired and
	// the sweep reclaims it.
	const group = 64
	eng, g := tableGossip(GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 32}, 3*group, 3*group+1)
	window := &gossipMsg{Entries: make([]gossipEntryWire, 2*group)}
	r := 0
	reclaimed := 0
	run := func() {
		now := eng.Now().Add(31 * simtime.Second)
		eng.AdvanceTo(now)
		for i := range window.Entries {
			window.Entries[i] = gossipEntryWire{
				Origin: int32(((r+i/group)%3)*group + i%group),
				Stamp:  now,
			}
		}
		g.merge(window)
		before := g.cells.len()
		g.sweepAt = 0 // arm the sweep
		g.maybeSweep(now)
		reclaimed += before - g.cells.len()
		r++
	}
	for i := 0; i < 6; i++ {
		run()
	}
	chunks, index := len(g.cells.chunks), len(g.cells.index)
	reclaimed = 0
	const runs = 30
	if a := testing.AllocsPerRun(runs, run); a != 0 {
		t.Fatalf("steady-state merge+sweep allocates %v times per run", a)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if reclaimed != (runs+1)*group {
		t.Fatalf("sweeps reclaimed %d cells over %d runs, want %d per run", reclaimed, runs+1, group)
	}
	if len(g.cells.chunks) != chunks || len(g.cells.index) != index {
		t.Fatalf("table grew in steady state: %d→%d chunks, %d→%d index slots",
			chunks, len(g.cells.chunks), index, len(g.cells.index))
	}
	checkTable(t, g)
}

// TestReservedIndexNeverGrows: a daemon built by NewGossip holds the heard
// set its config implies — mega-farm's 540 origins, rack-farm's 511 (all
// its peers) — in the index NewGossip reserved, and grows the index only
// once the heard set passes 3/4 of it.
func TestReservedIndexNeverGrows(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          GossipConfig
		n            int
		heard, slots int
	}{
		{"mega-farm", GossipConfig{Period: 4 * simtime.Second, Fanout: 2, WindowLen: 32}, 4096, 540, 1024},
		{"rack-farm", GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 32}, 512, 511, 1024},
	} {
		eng, g := tableGossip(tc.cfg, 0, tc.n)
		if got := expectedHeard(tc.cfg, tc.n); got != tc.heard {
			t.Fatalf("%s: expected heard set %d, want %d", tc.name, got, tc.heard)
		}
		if len(g.cells.index) != tc.slots {
			t.Fatalf("%s: NewGossip reserved %d index slots, want %d", tc.name, len(g.cells.index), tc.slots)
		}
		index := &g.cells.index[0]
		// mergeTo merges fresh origins 1..k, one window at a time.
		mergeTo := func(k int) {
			for o := 1; o <= k; {
				m := &gossipMsg{}
				for ; o <= k && len(m.Entries) < tc.cfg.WindowLen; o++ {
					m.Entries = append(m.Entries, gossipEntryWire{Origin: int32(o), Stamp: eng.Now()})
				}
				m.receivers.Store(1)
				g.merge(m)
			}
		}
		mergeTo(tc.heard)
		if g.cells.len() != tc.heard || &g.cells.index[0] != index {
			t.Fatalf("%s: holding %d origins regrew the index to %d slots", tc.name, g.cells.len(), len(g.cells.index))
		}
		checkTable(t, g)
		if full := 3 * tc.slots / 4; full < tc.n-1 {
			mergeTo(full + 1)
			if len(g.cells.index) != 2*tc.slots {
				t.Fatalf("%s: %d origins left the index at %d slots, want it grown to %d", tc.name, full+1, len(g.cells.index), 2*tc.slots)
			}
			checkTable(t, g)
		}
	}
}

// TestPullBurstGrowsSampleRing: daemon 0 answers a pull request every
// half second for 20 s, well within MaxAge, while it merges daemon 2's
// pushes, and daemon 1 merges every answer. Daemon 0 composes more live
// samples than its ring starts with, so the ring grows instead of
// overwriting one; every sample it composed within MaxAge still reads
// back as composed, and daemon 1's Fresh, which reads both origins'
// rings, matches the reference model after every merge. Two MaxAges
// later the ring wraps over its expired samples without growing again.
func TestPullBurstGrowsSampleRing(t *testing.T) {
	cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 8}
	engs, g := tablePlane(cfg, 3)
	ref := newRefGossip(cfg, 1, 3)
	type key struct {
		origin int32
		seq    uint32
	}
	vals := map[key]LoadSample{}
	stamps := map[uint32]simtime.Time{}
	k := 0
	for i, d := range g {
		i, d := i, d
		d.SetProbe(func() LoadSample {
			k++
			s := LoadSample{Load: float64(k), Queue: k, UsedMemMB: int64(i + 2*k)}
			vals[key{int32(i), d.own.last + 1}] = s
			if i == 0 {
				stamps[d.own.last+1] = d.eng.Now()
			}
			return s
		})
	}
	now := simtime.Time(0)
	g[0].send = func(dst int, m netmodel.Message) {
		w := m.Payload.(*gossipMsg)
		in := make([]LoadSample, len(w.Entries))
		for i, e := range w.Entries {
			in[i] = vals[key{e.Origin, e.Seq}]
		}
		g[dst].merge(w)
		ref.merge(w, in, now)
	}
	advance := func(d simtime.Duration) {
		now = now.Add(d)
		for _, e := range engs {
			e.AdvanceTo(now)
		}
	}
	check := func() {
		t.Helper()
		fresh := map[int]GossipEntry{}
		g[1].Fresh(func(o int, e GossipEntry) { fresh[o] = e })
		n := 0
		ref.fresh(now, func(o int, e GossipEntry) {
			n++
			if fresh[o] != e {
				t.Fatalf("at %v Fresh(%d) = %+v, reference %+v", now, o, fresh[o], e)
			}
		})
		if n != len(fresh) || n == 0 {
			t.Fatalf("at %v Fresh visits %d origins, reference %d", now, len(fresh), n)
		}
		for seq, at := range stamps {
			if !expired(at, now) {
				s := g[0].own.at(seq)
				if s.entry() != (GossipEntry{Sample: vals[key{0, seq}], Stamp: at}) {
					t.Fatalf("at %v daemon 0's live sample %d reads %+v", now, seq, s.entry())
				}
			}
		}
	}

	start := len(g[0].own.slots)
	for i := 1; i <= 40; i++ {
		advance(simtime.Second / 2)
		if i%4 == 0 {
			m := g[2].compose(now)
			m.receivers.Store(1)
			g[0].merge(m)
		}
		g[0].servePull(1)
		check()
	}
	grown := len(g[0].own.slots)
	if start != ringLen(cfg) || grown <= start {
		t.Fatalf("daemon 0's ring went from %d slots (ringLen %d) to %d over %d live samples", start, ringLen(cfg), grown, g[0].own.last)
	}
	advance(2 * MaxAge)
	for i := 0; i < 2*grown; i++ {
		advance(simtime.Second)
		g[0].servePull(1)
		check()
	}
	if got := len(g[0].own.slots); got != grown {
		t.Fatalf("daemon 0's ring grew from %d to %d slots with one live sample a second", grown, got)
	}
}

// TestRewrittenSampleReadPanics: a daemon whose clock lags its origin's,
// which the engines never allow, would read a sample the origin has
// rewritten after it expired; the ring's sequence check panics rather
// than return the wrong sample.
func TestRewrittenSampleReadPanics(t *testing.T) {
	cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 8}
	engs, g := tablePlane(cfg, 2)
	m := g[0].compose(0)
	m.receivers.Store(1)
	g[1].merge(m)
	engs[0].AdvanceTo(simtime.Time(MaxAge + simtime.Second))
	for i := 0; i < ringLen(cfg); i++ {
		g[0].compose(engs[0].Now())
	}
	if len(g[0].own.slots) != ringLen(cfg) {
		t.Fatalf("ring grew to %d slots over an expired sample", len(g[0].own.slots))
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("reading a rewritten sample did not panic")
		}
	}()
	g[1].Entry(0)
}

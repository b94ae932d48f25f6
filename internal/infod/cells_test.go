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
	return eng, NewGossip(cfg, node, id, n, 11.36e6, func(int, netmodel.Message) {}, 1)
}

// checkTable asserts the cell table's own invariants: every handle is
// reachable from its origin through the index, and the index holds
// exactly one slot per cell.
func checkTable(t *testing.T, ct *cellTable) {
	t.Helper()
	for h := 0; h < ct.len(); h++ {
		if got := ct.find(int(ct.at(h).origin)); got != h {
			t.Fatalf("origin %d under handle %d finds handle %d", ct.at(h).origin, h, got)
		}
	}
	used := 0
	for _, v := range ct.index {
		if v != 0 {
			used++
		}
	}
	if used != ct.len() {
		t.Fatalf("index holds %d slots for %d cells", used, ct.len())
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

// scriptEntry decodes one window entry. Its age is (ageByte-16)/64 of
// fuzzAgeUnit, so an age byte past 80 is already past MaxAge
// on arrival and one below 16 is stamped in the future; age byte 0xff
// marks the entry unknown.
func scriptEntry(origin int, ageByte byte, now simtime.Time) gossipEntryWire {
	age := simtime.Duration(int64(ageByte)-16) * fuzzAgeUnit / 64
	return gossipEntryWire{
		Origin: origin,
		Entry: GossipEntry{
			Sample: LoadSample{Load: float64(origin), Queue: int(ageByte), UsedMemMB: int64(origin) * 3},
			Stamp:  now.Add(-age),
			Hops:   int(ageByte % 3),
			Known:  ageByte != 0xff,
		},
	}
}

// FuzzGossipTable drives a daemon's heard set through a script of merged
// windows, window compositions and clock advances, and after every step
// checks each read against the frozen map-based reference: Entry and
// AgeRTT for every origin, MeanRTT, KnownCount, the composed window and
// the Fresh set. Ages reach past MaxAge and the clock jumps by up to four
// MaxAges, so both the compose ring-walk reclaim and the amortised sweep
// fire, and heard sets of up to 512 origins grow the index through
// several doublings.
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
	f.Add(uint16(300), uint8(0), []byte(grow))
	f.Add(uint16(300), uint8(8), []byte(grow))

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
	f.Add(uint16(last[2]+2), uint8(8), []byte(seed))

	f.Fuzz(func(t *testing.T, nOrigins uint16, windowLen uint8, script []byte) {
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
				m := gossipMsg{Entries: make([]gossipEntryWire, k)}
				for i := range m.Entries {
					b := script[3*i : 3*i+3]
					m.Entries[i] = scriptEntry((int(b[0])<<8|int(b[1]))%n, b[2], now)
				}
				script = script[3*k:]
				g.merge(m)
				ref.merge(m, now)
			case 1:
				if len(script) < 2 {
					script = nil
					break
				}
				m := gossipMsg{Entries: make([]gossipEntryWire, op/4+1)}
				start := int(script[0]) * n / 256
				for i := range m.Entries {
					m.Entries[i] = scriptEntry((start+i)%n, script[1]+byte(i), now)
				}
				script = script[2:]
				g.merge(m)
				ref.merge(m, now)
			case 2:
				got, want := g.compose(now), ref.compose(now)
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

			checkTable(t, &g.cells)
			for o := 0; o < n; o++ {
				if got, want := g.Entry(o), ref.entry(o, now); got != want {
					t.Fatalf("Entry(%d) = %+v, reference %+v", o, got, want)
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
	window := make([]gossipEntryWire, 2*group)
	r := 0
	reclaimed := 0
	run := func() {
		now := eng.Now().Add(31 * simtime.Second)
		eng.AdvanceTo(now)
		for i := range window {
			window[i] = gossipEntryWire{
				Origin: ((r+i/group)%3)*group + i%group,
				Entry:  GossipEntry{Stamp: now, Known: true},
			}
		}
		g.merge(gossipMsg{Entries: window})
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
	checkTable(t, &g.cells)
}

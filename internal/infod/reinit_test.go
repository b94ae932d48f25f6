package infod

import (
	"slices"
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// meshCfg is the plane meshRun builds: short windows over a 100-node
// plane, so each daemon's heard set fills most of its reserved index.
var meshCfg = GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 8}

// meshRun runs an n-daemon plane on a new engine until the instant until.
// Daemon i draws from seed+i, each send reaches its peer 1 ms plus 1 ms
// per node of distance later, and each probe reports a load that moves
// with the clock, so loads tie and change. With plane nil the daemons are
// built with NewGossip; otherwise plane's daemons are re-initialised in
// place, as a fabric reusing a plane does. The run stops with messages in
// flight.
func meshRun(plane []*Gossip, n int, seed uint64, until simtime.Time) []*Gossip {
	eng := sim.New()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, "g", 1)
	}
	var store *SampleStore
	if plane == nil {
		store = NewSampleStore(n)
		plane = make([]*Gossip, n)
	}
	for i := range plane {
		send := func(dst int, m netmodel.Message) {
			d := simtime.Duration(1+max(dst-i, i-dst)) * simtime.Millisecond
			eng.Schedule(d, func() { plane[dst].handle(m.Payload) })
		}
		if store != nil {
			plane[i] = NewGossip(meshCfg, store, nodes[i], i, 11.36e6, send, seed+uint64(i))
		} else {
			plane[i].Reinit(meshCfg, nodes[i], i, 11.36e6, send, seed+uint64(i))
		}
		plane[i].SetProbe(func() LoadSample {
			sec := int(eng.Now() / simtime.Time(simtime.Second))
			return LoadSample{Load: float64((7*i + sec) % 5), Queue: i, UsedMemMB: int64(sec)}
		})
		plane[i].Start()
	}
	eng.Run(until)
	return plane
}

// TestReinitMatchesNewGossip runs a plane for one seed, re-initialises
// it and runs it again for another, and checks that every daemon then
// reads exactly as the daemon of a plane built new for the second seed:
// every entry and age estimate, the means and counts, LeastLoaded, the
// bandwidth estimate, the random stream's state and the next window it
// composes.
func TestReinitMatchesNewGossip(t *testing.T) {
	const n = 100
	first, second := simtime.Time(37*simtime.Second+30*simtime.Millisecond), simtime.Time(45*simtime.Second)
	fresh := meshRun(nil, n, 2000, second)
	reused := meshRun(meshRun(nil, n, 1000, first), n, 2000, second)
	for i := range fresh {
		a, b := fresh[i], reused[i]
		checkTable(t, b)
		for o := 0; o < n; o++ {
			ea, oka := a.Entry(o)
			eb, okb := b.Entry(o)
			if ea != eb || oka != okb {
				t.Fatalf("daemon %d: Entry(%d) = %+v,%v re-initialised, %+v,%v new", i, o, eb, okb, ea, oka)
			}
			ra, oka := a.AgeRTT(o)
			rb, okb := b.AgeRTT(o)
			if ra != rb || oka != okb {
				t.Fatalf("daemon %d: AgeRTT(%d) = %v,%v re-initialised, %v,%v new", i, o, rb, okb, ra, oka)
			}
		}
		if a.MeanRTT() != b.MeanRTT() || a.KnownCount() != b.KnownCount() || a.Bandwidth() != b.Bandwidth() {
			t.Fatalf("daemon %d: MeanRTT, KnownCount, Bandwidth = %v, %d, %v re-initialised, %v, %d, %v new",
				i, b.MeanRTT(), b.KnownCount(), b.Bandwidth(), a.MeanRTT(), a.KnownCount(), a.Bandwidth())
		}
		oa, la, oka := a.LeastLoaded()
		ob, lb, okb := b.LeastLoaded()
		if oa != ob || la != lb || oka != okb {
			t.Fatalf("daemon %d: LeastLoaded = %d,%v,%v re-initialised, %d,%v,%v new", i, ob, lb, okb, oa, la, oka)
		}
		if *a.rng != *b.rng {
			t.Fatalf("daemon %d: random stream differs from a new daemon's", i)
		}
		wa, wb := a.compose(a.eng.Now()).Entries, b.compose(b.eng.Now()).Entries
		if !slices.Equal(wa, wb) {
			t.Fatalf("daemon %d composes %+v re-initialised, %+v new", i, wb, wa)
		}
	}
}

// planeStorage is the storage of one daemon that a re-initialised plane
// must reuse: its cell chunks, its index, its sample ring and its kept
// windows.
type planeStorage struct {
	chunks  []*[chunkLen]cell
	index   *uint32
	slots   *sample
	windows []*gossipMsg
}

func storageOf(g *Gossip) planeStorage {
	return planeStorage{
		chunks:  slices.Clone(g.cells.chunks),
		index:   &g.cells.index[0],
		slots:   &g.own.slots[0],
		windows: slices.Clone(g.windows),
	}
}

// TestReinitAllocatesNoStorage pins what reusing a plane saves: emptying
// a used plane's daemons allocates nothing, and running the same plane
// again from its re-initialised state, the run it made before, allocates
// no cell chunk, index, sample ring or window.
func TestReinitAllocatesNoStorage(t *testing.T) {
	const n = 100
	until := simtime.Time(37*simtime.Second + 30*simtime.Millisecond)
	plane := meshRun(nil, n, 1000, until)
	before := make([]planeStorage, n)
	for i, g := range plane {
		before[i] = storageOf(g)
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, g := range plane {
			g.empty()
		}
	}); a != 0 {
		t.Fatalf("emptying a used plane allocates %v times", a)
	}
	meshRun(plane, n, 1000, until)
	for i, g := range plane {
		after := storageOf(g)
		if !slices.Equal(after.chunks, before[i].chunks) {
			t.Fatalf("daemon %d: %d cell chunks after the second run, %d before, not all the same", i, len(after.chunks), len(before[i].chunks))
		}
		if after.index != before[i].index {
			t.Fatalf("daemon %d allocated a new index", i)
		}
		if after.slots != before[i].slots {
			t.Fatalf("daemon %d allocated a new sample ring", i)
		}
		if !slices.Equal(after.windows, before[i].windows) {
			t.Fatalf("daemon %d: kept windows %p after the second run, %p before", i, after.windows, before[i].windows)
		}
	}
}

// TestReinitRejectsAnotherDaemon: a daemon re-initialises only as the
// daemon it was made as, under the config its storage was sized for.
func TestReinitRejectsAnotherDaemon(t *testing.T) {
	plane := meshRun(nil, 4, 1, simtime.Time(simtime.Second))
	node := cluster.NewNode(sim.New(), "x", 1)
	wide := meshCfg
	wide.WindowLen++
	for _, tc := range []struct {
		name string
		cfg  GossipConfig
		id   int
	}{{"other id", meshCfg, 2}, {"other config", wide, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Reinit(%+v, id %d) of daemon 1 did not panic", tc.cfg, tc.id)
				}
			}()
			plane[1].Reinit(tc.cfg, node, tc.id, 11.36e6, func(int, netmodel.Message) {}, 1)
		})
	}
}

package infod

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// TestCompactLayouts guards the flat layouts the heard set, the wire and
// the sample rings are sized for: a field that regrows a cell past 32
// bytes (a 64-cell chunk past the 2048-byte size class), a wire entry
// past 16, an index key past 4 or a ring sample past 32 fails here.
func TestCompactLayouts(t *testing.T) {
	if s := unsafe.Sizeof(cell{}); s > 32 {
		t.Fatalf("cell is %d bytes, want ≤ 32", s)
	}
	if s := unsafe.Sizeof(gossipEntryWire{}); s > 16 {
		t.Fatalf("gossipEntryWire is %d bytes, want ≤ 16", s)
	}
	var ct cellTable
	if s := unsafe.Sizeof(ct.index[0]); s != 4 {
		t.Fatalf("index slot is %d bytes, want 4", s)
	}
	if s := unsafe.Sizeof(sample{}); s > 32 {
		t.Fatalf("ring sample is %d bytes, want ≤ 32", s)
	}
}

// TestGossipRoundAllocFree pins the pooled deferred actions end to end:
// three started daemons on one engine gossip through the engine itself,
// push → send → handle → merge and pull → send → handle → servePull →
// send → handle → merge, each send delivered straight to the peer's node.
// Once the action pools and kept windows are warm, a whole pull period of
// rounds allocates nothing.
func TestGossipRoundAllocFree(t *testing.T) {
	eng := sim.New()
	cfg := GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 32}
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, "g", 1)
	}
	windows, pulls := 0, 0
	g := make([]*Gossip, len(nodes))
	store := NewSampleStore(len(nodes))
	for i := range g {
		send := func(dst int, m netmodel.Message) {
			switch m.Payload.(type) {
			case *gossipMsg:
				windows++
			case *gossipPullMsg:
				pulls++
			}
			nodes[dst].Deliver(m.Payload)
		}
		g[i] = NewGossip(cfg, store, nodes[i], i, 11.36e6, send, uint64(i+1))
		g[i].SetProbe(func() LoadSample { return LoadSample{Load: float64(i), Queue: i, UsedMemMB: int64(i)} })
		g[i].Start()
	}
	// Rounds run from half a period past one pull tick to half a period
	// past the next, so each holds PullEvery push ticks and one pull tick
	// per daemon, and every deferred step they start.
	pullPeriod := PullEvery * cfg.Period
	eng.Run(simtime.Time(cfg.Period / 2))
	round := func() { eng.Run(eng.Now().Add(pullPeriod)) }
	for i := 0; i < 4; i++ {
		round()
	}
	windows, pulls = 0, 0
	const rounds = 20
	if a := testing.AllocsPerRun(rounds, round); a != 0 {
		t.Fatalf("a warm gossip round allocates %v times", a)
	}
	// AllocsPerRun makes one warm-up call before the measured runs. Each
	// daemon sends PullEvery pushes of Fanout copies, one pull request and
	// one pull answer per round.
	n := (rounds + 1) * len(g)
	if wantWindows := n * (PullEvery*cfg.Fanout + 1); pulls != n || windows != wantWindows {
		t.Fatalf("%d rounds sent %d windows and %d pull requests, want %d and %d", rounds+1, windows, pulls, wantWindows, n)
	}
	for i, d := range g {
		if d.cells.len() != 2 {
			t.Fatalf("daemon %d holds %d cells, want both peers", i, d.cells.len())
		}
		checkTable(t, d)
	}
}

// TestComposeSteadyStateAllocFree pins what recycled windows buy: three
// daemons on one clock take turns composing a window that the other two
// merge, and once every daemon has a window of its own a whole
// compose → merge → merge cycle allocates nothing.
func TestComposeSteadyStateAllocFree(t *testing.T) {
	eng := sim.New()
	cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 32}
	var g [3]*Gossip
	store := NewSampleStore(len(g))
	for i := range g {
		g[i] = NewGossip(cfg, store, cluster.NewNode(eng, "g", 1), i, 11.36e6,
			func(int, netmodel.Message) {}, uint64(i+1))
		g[i].SetProbe(func() LoadSample { return LoadSample{Load: float64(i), Queue: i, UsedMemMB: int64(i)} })
	}
	r := 0
	round := func() {
		eng.AdvanceTo(eng.Now().Add(simtime.Second))
		s := r % len(g)
		m := g[s].compose(eng.Now())
		m.receivers.Store(2)
		g[(s+1)%3].merge(m)
		g[(s+2)%3].merge(m)
		r++
	}
	for i := 0; i < 9; i++ {
		round()
	}
	if a := testing.AllocsPerRun(30, round); a != 0 {
		t.Fatalf("steady-state compose+merge allocates %v times per round", a)
	}
	for i, d := range g {
		if d.cells.len() != 2 {
			t.Fatalf("daemon %d holds %d cells, want both peers", i, d.cells.len())
		}
		checkTable(t, d)
	}
}

// TestWindowRecyclingSurvivesLostCopy: with fanout 2 among three daemons
// every push's buffer is shared by two copies. For one push of daemon 0,
// the copy to daemon 2 is lost on a down link and the copy to daemon 1 is
// held in flight for ten periods. The lost copy never releases the buffer,
// so none of daemon 0's later windows may reuse it, and when daemon 1
// finally merges it, it still carries exactly the entries composed at
// send time.
func TestWindowRecyclingSurvivesLostCopy(t *testing.T) {
	cfg := GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 32}
	holdAt := simtime.Time(5 * simtime.Second)
	var (
		eng     *sim.Engine
		daemons []*Gossip
		held    *gossipMsg
		sent    []gossipEntryWire
		copies  int
		reused  int
		merged  bool
		windows = map[*gossipMsg]bool{}
	)
	eng, daemons = gossipMesh(t, 3, cfg, simtime.Millisecond,
		func(src, dst int, m netmodel.Message) bool {
			w, ok := m.Payload.(*gossipMsg)
			if !ok {
				return true
			}
			if held == nil && src == 0 && eng.Now() >= holdAt && w.receivers.Load() == 2 {
				held = w
				sent = slices.Clone(w.Entries)
			}
			if w != held {
				if src == 0 && windows[w] {
					reused++
				}
				windows[w] = true
				return true
			}
			if copies++; copies > 2 {
				t.Fatalf("daemon 0 sent the held buffer again at %v", eng.Now())
			}
			if dst == 1 {
				eng.Schedule(10*cfg.Period, func() {
					if !slices.Equal(held.Entries, sent) {
						t.Fatalf("held window changed in flight:\n got %+v\nwant %+v", held.Entries, sent)
					}
					daemons[1].handle(held)
					merged = true
				})
			}
			return false // the copy to daemon 2 is lost; daemon 1's is held
		})
	eng.Run(holdAt.Add(20 * cfg.Period))
	if held == nil || copies != 2 || !merged {
		t.Fatalf("held window %p: %d copies sent, merged %v", held, copies, merged)
	}
	if got := held.receivers.Load(); got != 1 {
		t.Fatalf("held window's receiver count is %d after the survivor's merge, want 1", got)
	}
	if !slices.Equal(held.Entries, sent) {
		t.Fatalf("held window changed after the merge:\n got %+v\nwant %+v", held.Entries, sent)
	}
	if reused == 0 {
		t.Fatal("daemon 0 never reused a window buffer — recycling was not exercised")
	}
}

// TestWindowMergesConcurrently drives the cross-shard case under the race
// detector: both copies of a window merge on their own goroutines, as
// daemons on two shards do, while the composer composes its next window on
// a third. The composer keeps only the window being merged, so whenever
// both merges finish first it reuses the very buffer they read, and a
// reuse that could overwrite the entries before a receiver has read them
// is a reported race.
func TestWindowMergesConcurrently(t *testing.T) {
	cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 8}
	engs, g := tablePlane(cfg, 3)
	m := g[0].compose(engs[0].Now())
	reused := 0
	for r := 1; r <= 200; r++ {
		for _, e := range engs {
			e.AdvanceTo(simtime.Time(r) * simtime.Time(simtime.Second))
		}
		m.receivers.Store(2)
		g[0].windows = append(g[0].windows[:0], m)
		var next *gossipMsg
		var wg sync.WaitGroup
		wg.Add(3)
		for _, d := range g[1:] {
			go func(d *Gossip) {
				defer wg.Done()
				d.merge(m)
			}(d)
		}
		go func() {
			defer wg.Done()
			next = g[0].compose(engs[0].Now())
		}()
		wg.Wait()
		if next == m {
			reused++
		}
		m = next
	}
	last := engs[0].Now().Add(-simtime.Second)
	for _, d := range g[1:] {
		if e, ok := d.Entry(0); !ok || e.Stamp != last {
			t.Fatalf("daemon %d holds origin 0 as %+v,%v, want the last merged window's stamp %v", d.id, e, ok, last)
		}
	}
	t.Logf("composer reused the window being merged in %d of 200 rounds", reused)
}

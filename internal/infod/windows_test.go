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

// TestCompactLayouts guards the flat layouts the heard set and the wire
// are sized for: a field that regrows a cell past 48 bytes or a wire entry
// past 40 fails here.
func TestCompactLayouts(t *testing.T) {
	if s := unsafe.Sizeof(cell{}); s > 48 {
		t.Fatalf("cell is %d bytes, want ≤ 48", s)
	}
	if s := unsafe.Sizeof(gossipEntryWire{}); s > 40 {
		t.Fatalf("gossipEntryWire is %d bytes, want ≤ 40", s)
	}
}

// TestComposeSteadyStateAllocFree pins what recycled windows buy: three
// daemons on one clock take turns composing a window that the other two
// merge, the last merger adopting the buffer, and once every free list is
// warm a whole compose → merge → merge → adopt cycle allocates nothing.
func TestComposeSteadyStateAllocFree(t *testing.T) {
	eng := sim.New()
	cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 32}
	var g [3]*Gossip
	for i := range g {
		g[i] = NewGossip(cfg, cluster.NewNode(eng, "g", 1), i, len(g), 11.36e6,
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
// daemons on two shards do, and each receiver composes straight after its
// merge. The last merger adopts the buffer and its compose overwrites it
// at once, so an adoption that could run before the other receiver has
// read the entries is a reported race.
func TestWindowMergesConcurrently(t *testing.T) {
	cfg := GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 8}
	engs := make([]*sim.Engine, 3)
	g := make([]*Gossip, 3)
	for i := range g {
		engs[i], g[i] = tableGossip(cfg, i, 3)
	}
	for r := 1; r <= 200; r++ {
		for _, e := range engs {
			e.AdvanceTo(simtime.Time(r) * simtime.Time(simtime.Second))
		}
		m := g[0].compose(engs[0].Now())
		m.receivers.Store(2)
		var wg sync.WaitGroup
		for _, d := range g[1:] {
			wg.Add(1)
			go func(d *Gossip) {
				defer wg.Done()
				d.merge(m)
				d.adopt(d.compose(d.eng.Now()))
			}(d)
		}
		wg.Wait()
	}
	for _, d := range g[1:] {
		if e, ok := d.Entry(0); !ok || e.Stamp != engs[0].Now() {
			t.Fatalf("daemon %d holds origin 0 as %+v,%v, want the last window's stamp", d.id, e, ok)
		}
	}
}
